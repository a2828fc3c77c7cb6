package task

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"structmine/internal/datagen"
	"structmine/internal/exec"
	"structmine/internal/relation"
)

// TestNoCarveOutlivesGrant holds the exec aliasing contract: nothing
// carved from a pooled arena may be reachable after its grant is
// released, because the next job carves the same slabs (and race
// builds fill them with 0xA5 on release). Every task runs twice back
// to back under grants from one scheduler, at one and two workers, and
// each artifact must equal the bytes of the same run without a grant
// (unpooled heap arenas, as the facade and the CLI run it).
func TestNoCarveOutlivesGrant(t *testing.T) {
	db, err := datagen.NewDB2Sample()
	if err != nil {
		t.Fatal(err)
	}
	dblp := datagen.NewDBLP(datagen.DBLPConfig{Tuples: 2000, Seed: 1, MiscFrac: 129.0 / 50000, JournalFrac: 0.28})
	for _, in := range []struct {
		name string
		r    *relation.Relation
		mvd  *relation.Relation // at most 16 attributes; 18 s at 2 000 × 13
	}{
		{"db2", db.Joined, narrow(t)},
		{"dblp-2000x13", dblp, dblp.Project(datagen.ProjectionAttrs())},
	} {
		c, mvd := relation.AsColumns(in.r), relation.AsColumns(in.mvd)
		artifact := func(ctx context.Context, name string) string {
			rel := c
			if name == "mine-mvds" {
				rel = mvd
			}
			res, err := RunColumns(ctx, rel, name, Params{})
			if err != nil {
				t.Fatalf("%s %s: %v", in.name, name, err)
			}
			data, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("%s %s: %v", in.name, name, err)
			}
			return string(data)
		}
		for _, s := range Specs {
			if s.MultiFile {
				continue
			}
			want := artifact(context.Background(), s.Name)
			for _, workers := range []int{1, 2} {
				sched := exec.NewScheduler(workers)
				for run := 1; run <= 2; run++ {
					g := sched.Acquire()
					got := artifact(exec.WithGrant(context.Background(), g), s.Name)
					g.Release()
					if got != want {
						t.Errorf("%s %s at %d workers, run %d under a grant: artifact differs from the unpooled run\n got %.200s\nwant %.200s",
							in.name, s.Name, workers, run, got, want)
					}
				}
			}
		}
	}
}

// TestRepeatedMineAddsNoSlab: a second identical mine-fds job under a
// grant carves the slabs the first one left in the pool and maps (or,
// in race builds, allocates) no new slab bytes. One worker, so each
// arena's carve sequence is a pure function of the input.
func TestRepeatedMineAddsNoSlab(t *testing.T) {
	c := relation.AsColumns(datagen.NewDBLP(datagen.DBLPConfig{Tuples: 2000, Seed: 1, MiscFrac: 129.0 / 50000, JournalFrac: 0.28}))
	sched := exec.NewScheduler(1)
	mine := func() {
		g := sched.Acquire()
		defer g.Release()
		if _, err := RunColumns(exec.WithGrant(context.Background(), g), c, "mine-fds", Params{}); err != nil {
			t.Fatal(err)
		}
	}
	mine()
	before := fmt.Sprint(exec.ArenaSlabBytes())
	mine()
	if after := fmt.Sprint(exec.ArenaSlabBytes()); after != before {
		t.Fatalf("the second mine-fds job grew the pooled slabs: (retained, mapped) %s -> %s", before, after)
	}
}
