package tuples

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"structmine/internal/limbo"
	"structmine/internal/relation"
)

func randomCSVRel(t *testing.T, n int, seed int64) *relation.Relation {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	sb.WriteString("a,b,c\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "v%d,w%d,u%d\n", rng.Intn(6), rng.Intn(4), rng.Intn(5))
	}
	r, err := relation.ReadCSV("t", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPartitionDeltaMatchesScratch is the cluster-side delta property:
// persisting the Phase 1 tree at a prefix, then resuming it over the
// appended rows, must yield a PartitionResult deeply equal to building
// the whole pipeline from scratch on the final relation — tree bytes
// included, since those are what the next append resumes from.
func TestPartitionDeltaMatchesScratch(t *testing.T) {
	ctx := context.Background()
	full := randomCSVRel(t, 260, 17)
	for _, cut := range []int{259, 200, 130} {
		t.Run(fmt.Sprintf("cut-%d", cut), func(t *testing.T) {
			prefix := full.Select(seq(cut))
			prefTree := PartitionTreeCtx(ctx, prefix, 40, 4)
			got, tree, resumed, err := PartitionColumns(ctx, relation.AsColumns(full), 40, 4, 0, limbo.EncodeTree(prefTree))
			if err != nil || !resumed {
				t.Fatalf("resumed=%v err=%v", resumed, err)
			}
			scratch := PartitionTreeCtx(ctx, full, 40, 4)
			if !reflect.DeepEqual(limbo.EncodeTree(tree), limbo.EncodeTree(scratch)) {
				t.Fatal("resumed tree bytes diverge from scratch build")
			}
			want := PartitionFromTree(ctx, full, scratch, 0)
			if got.K != want.K || !reflect.DeepEqual(got.Assign, want.Assign) ||
				!reflect.DeepEqual(got.Clusters, want.Clusters) ||
				got.InfoLossFrac != want.InfoLossFrac {
				t.Fatalf("delta partition diverges from scratch:\n got K=%d loss=%v\nwant K=%d loss=%v",
					got.K, got.InfoLossFrac, want.K, want.InfoLossFrac)
			}
		})
	}
}

// TestPartitionColumnsIgnoresBadState pins the rebuild triggers: corrupt
// bytes and trees that claim more rows than the relation holds are not
// resumed, and the from-scratch result stands.
func TestPartitionColumnsIgnoresBadState(t *testing.T) {
	ctx := context.Background()
	r := randomCSVRel(t, 50, 3)
	enc := limbo.EncodeTree(PartitionTreeCtx(ctx, r, 20, 4))
	small := r.Select(seq(10))
	for what, tc := range map[string]struct {
		rel   *relation.Relation
		state []byte
	}{
		"truncated tree":               {r, enc[:len(enc)-3]},
		"tree covering 50 rows for 10": {small, enc},
	} {
		got, tree, resumed, err := PartitionColumns(ctx, relation.AsColumns(tc.rel), 20, 4, 0, tc.state)
		if err != nil || resumed {
			t.Fatalf("%s: resumed=%v err=%v", what, resumed, err)
		}
		scratch := PartitionTreeCtx(ctx, tc.rel, 20, 4)
		if !reflect.DeepEqual(limbo.EncodeTree(tree), limbo.EncodeTree(scratch)) ||
			!reflect.DeepEqual(got.Clusters, PartitionFromTree(ctx, tc.rel, scratch, 0).Clusters) {
			t.Fatalf("%s: result diverges from a from-scratch run", what)
		}
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
