package task

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParams decodes arbitrary job-submit "params" JSON the way the
// server does and holds the cache-key contract for every task: Normalize
// is idempotent, and a normalized parameter set keys the same entry as
// the one it came from. Seeds under
// testdata/fuzz/: every knob set, explicit zeros, negative and fractional
// integers, and knobs of the wrong type.
func FuzzParams(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Params
		if json.Unmarshal(data, &p) != nil {
			return
		}
		for _, name := range Names() {
			q := p.Normalize(name)
			if again := q.Normalize(name); !reflect.DeepEqual(again, q) {
				t.Fatalf("%s: Normalize is not idempotent on %s: %+v then %+v", name, data, q, again)
			}
			if got, want := q.CacheKey(name), p.CacheKey(name); got != want {
				t.Fatalf("%s: normalized params key %q, the submitted ones %q", name, got, want)
			}
		}
	})
}
