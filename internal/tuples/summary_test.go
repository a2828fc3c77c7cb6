package tuples

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"sort"
	"testing"

	"structmine/internal/limbo"
	"structmine/internal/relation"
)

// dirtyRelation has exact duplicates (every 7th tuple repeats tuple 0 of
// its block) and near duplicates (every 5th differs from its
// predecessor in one of five values), so a Phase 1 pass leaves
// multi-tuple leaves at φT = 0 and more of them at φT > 0.
func dirtyRelation(t *testing.T, n int) *relation.Relation {
	t.Helper()
	b := relation.NewBuilder("dirty", []string{"A", "B", "C", "D", "E"})
	row := func(i int) []string {
		return []string{
			fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i%11), fmt.Sprintf("c%d", i%5),
			fmt.Sprintf("d%d", i/3), fmt.Sprintf("e%d", i%2),
		}
	}
	for i := 0; i < n; i++ {
		r := row(i)
		switch {
		case i%7 == 6:
			r = row(i - 6)
		case i%5 == 4:
			r = row(i - 1)
			r[2] = "changed"
		}
		if err := b.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	return b.Relation()
}

// TestSummarizeMatchesTree checks Summarize against the construction it
// replaced: a limbo.BuildTreeCtx tree read through a pointer map. At
// φT = 0 the summary numbers its leaves by first member, so the tree's
// leaves are renumbered by FirstID (the founding tuple) before the
// comparison.
func TestSummarizeMatchesTree(t *testing.T) {
	ctx := context.Background()
	r := dirtyRelation(t, 300)
	objs := Objects(r)
	for _, phiT := range []float64{0, 0.3, 1} {
		sum := Summarize(ctx, objs, r.M(), phiT, 4)

		tree := limbo.NewTree(limbo.Config{B: 4, Threshold: limbo.Threshold(phiT, limbo.MutualInfo(objs), len(objs))})
		leafOf := make([]*limbo.DCF, len(objs))
		for i, o := range objs {
			leafOf[i] = tree.Insert(o)
		}
		leaves := tree.Leaves()
		if phiT == 0 {
			sort.Slice(leaves, func(i, j int) bool { return leaves[i].FirstID < leaves[j].FirstID })
		}
		index := map[*limbo.DCF]int32{}
		var multi []*limbo.DCF
		for i, d := range leaves {
			index[d] = int32(i)
			if d.N >= 2 {
				multi = append(multi, d)
			}
		}
		if sum.Threshold != tree.Threshold() || sum.LeafCount != tree.LeafCount() {
			t.Fatalf("φT=%v: τ %v, %d leaves; the tree has τ %v, %d leaves",
				phiT, sum.Threshold, sum.LeafCount, tree.Threshold(), tree.LeafCount())
		}
		for i, d := range leafOf {
			if sum.LeafOf[i] != index[d] {
				t.Fatalf("φT=%v: tuple %d in leaf %d, the tree says %d", phiT, i, sum.LeafOf[i], index[d])
			}
		}
		if len(sum.Multi) != len(multi) || len(multi) == 0 {
			t.Fatalf("φT=%v: %d multi-tuple leaves, the tree has %d", phiT, len(sum.Multi), len(multi))
		}
		for i, d := range multi {
			if !bytes.Equal(limbo.AppendDCF(nil, sum.Multi[i]), limbo.AppendDCF(nil, d)) {
				t.Fatalf("φT=%v: multi-tuple leaf %d differs from the tree's", phiT, i)
			}
		}
		if !sum.For(r.N(), r.M(), phiT, 4) || sum.For(r.N()+1, r.M(), phiT, 4) ||
			sum.For(r.N(), r.M()+1, phiT, 4) || sum.For(r.N(), r.M(), phiT+0.1, 4) || sum.For(r.N(), r.M(), phiT, 5) {
			t.Fatalf("φT=%v: For does not pin (n, m, φT, B)", phiT)
		}
	}
}

// TestSummaryCodecRoundTrip: a decoded summary is indistinguishable from
// the built one — same fields, same bytes when re-encoded, and the same
// duplicate report down to the float bits of every association loss.
func TestSummaryCodecRoundTrip(t *testing.T) {
	ctx := context.Background()
	r := dirtyRelation(t, 300)
	objs := Objects(r)
	for _, phiT := range []float64{0, 0.3} {
		built := Summarize(ctx, objs, r.M(), phiT, 4)
		enc := EncodeSummary(built)
		got, err := DecodeSummary(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(EncodeSummary(got), enc) {
			t.Fatalf("φT=%v: Encode → Decode → Encode changed the bytes", phiT)
		}
		if got.Threshold != built.Threshold || !reflect.DeepEqual(got.LeafOf, built.LeafOf) || !got.For(r.N(), r.M(), phiT, 4) {
			t.Fatalf("φT=%v: decoded summary differs from the built one", phiT)
		}
		want, have := built.Duplicates(ctx, objs), got.Duplicates(ctx, objs)
		if !reflect.DeepEqual(want.Assign, have.Assign) || !reflect.DeepEqual(want.Groups, have.Groups) {
			t.Fatalf("φT=%v: duplicate report from the decoded summary differs", phiT)
		}
	}
}

// rankedSummary is a φT = 0.3 summary over 560 tuples that agree on
// twelve attributes and differ in an id, beside 140 tuples unique on
// every attribute. The 560 fill one leaf, whose main tier consolidates
// past 512 coordinates and leaves the rest in its tail. The summary's
// own leaves are copies without the tree's rank index, so each is
// rebuilt here by NewDCF and AbsorbObj over its members, which builds
// the index on consolidation: the returned summary carries a leaf with
// a rank index and tail tier, and the decoder meets every record field.
func rankedSummary(t *testing.T) *Summary {
	t.Helper()
	attrs := []string{"id"}
	for a := 0; a < 12; a++ {
		attrs = append(attrs, fmt.Sprintf("F%d", a))
	}
	b := relation.NewBuilder("ranked", attrs)
	for i := 0; i < 700; i++ {
		family := 0
		if i >= 560 {
			family = i
		}
		row := []string{fmt.Sprintf("t%d", i)}
		for range attrs[1:] {
			row = append(row, fmt.Sprintf("f%d", family))
		}
		if err := b.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	r := b.Relation()
	objs := Objects(r)
	sum := Summarize(context.Background(), objs, r.M(), 0.3, 4)
	leaves := map[int32]*limbo.DCF{}
	var multi []int32 // leaf ids in Multi's order: by first member
	for i, l := range sum.LeafOf {
		if d, ok := leaves[l]; ok {
			d.AbsorbObj(objs[i])
			continue
		}
		leaves[l] = limbo.NewDCF(objs[i])
		multi = append(multi, l)
	}
	sum.Multi = sum.Multi[:0]
	for _, l := range multi {
		if d := leaves[l]; d.N >= 2 {
			sum.Multi = append(sum.Multi, d)
		}
	}
	ranked := false
	for _, d := range sum.Multi {
		rank, tail := dcfShape(t, limbo.AppendDCF(nil, d))
		ranked = ranked || (rank && tail > 0)
	}
	if !ranked {
		t.Fatal("no leaf carries both a rank index and a tail tier")
	}
	return sum
}

// dcfShape reads the rank flag and the tail-tier length out of one
// limbo.AppendDCF record: W bits | N | FirstID | counts | rank flag |
// main tier (count, deltas, sums) | tail tier.
func dcfShape(t *testing.T, rec []byte) (rank bool, tail int) {
	t.Helper()
	rec = rec[8:]
	next := func() int {
		v, w := binary.Uvarint(rec)
		if w <= 0 {
			t.Fatal("short DCF record")
		}
		rec = rec[w:]
		return int(v)
	}
	next() // N
	next() // FirstID
	for nc := next(); nc > 0; nc-- {
		next()
	}
	rank, rec = rec[0] == 1, rec[1:]
	main := next()
	for i := 0; i < main; i++ {
		next()
	}
	rec = rec[8*main:]
	return rank, next()
}

func TestDecodeSummaryRejects(t *testing.T) {
	r := dirtyRelation(t, 40)
	enc := EncodeSummary(Summarize(context.Background(), Objects(r), r.M(), 0, 4))
	flipped := append([]byte(nil), enc...)
	flipped[len(flipped)/2] ^= 1
	for name, data := range map[string][]byte{
		"empty": nil, "magic": append([]byte("SMLT"), enc[4:]...), "truncated": enc[:len(enc)/2],
		"bit flip": flipped, "trailing": resealCRC(append(append([]byte(nil), enc...), 0, 0, 0, 0, 0)),
	} {
		if _, err := DecodeSummary(data); !errors.Is(err, ErrCorruptSummary) {
			t.Errorf("%s: err = %v, want ErrCorruptSummary", name, err)
		}
	}

	// A sweep over the ranked summary's bytes. Every bit flip fails the
	// checksum. Resealed under a valid CRC, a flip either fails the
	// structural checks or decodes to a summary that encodes back to the
	// flipped bytes and has only coordinates ≥ 0: decoding never
	// normalizes, drops or invents a field. Every truncation fails.
	t.Run("ranked-corruption", func(t *testing.T) {
		enc := EncodeSummary(rankedSummary(t))
		for off := range enc {
			for _, bit := range []uint{0, 1 + uint(off)%7} {
				mut := append([]byte(nil), enc...)
				mut[off] ^= 1 << bit
				if _, err := DecodeSummary(mut); !errors.Is(err, ErrCorruptSummary) {
					t.Fatalf("flip of bit %d at %d: err = %v, want ErrCorruptSummary", bit, off, err)
				}
				mut = resealCRC(mut)
				got, err := DecodeSummary(mut)
				if err != nil {
					if !errors.Is(err, ErrCorruptSummary) {
						t.Fatalf("resealed flip of bit %d at %d failed untyped: %v", bit, off, err)
					}
					continue
				}
				if !bytes.Equal(EncodeSummary(got), mut) {
					t.Fatalf("resealed flip of bit %d at %d decoded to a summary that encodes differently", bit, off)
				}
				for i, d := range got.Multi {
					if c := d.Cond(); len(c) > 0 && c[0].Idx < 0 {
						t.Fatalf("resealed flip of bit %d at %d decoded leaf %d with coordinate %d", bit, off, i, c[0].Idx)
					}
				}
			}
		}
		for n := range enc {
			if _, err := DecodeSummary(enc[:n]); !errors.Is(err, ErrCorruptSummary) {
				t.Fatalf("truncation to %d of %d bytes: err = %v, want ErrCorruptSummary", n, len(enc), err)
			}
		}
	})
}

// resealCRC returns data with its last four bytes replaced by the
// CRC32-IEEE of what precedes them, so a mutated payload gets past the
// checksum and reaches the structural validation behind it.
func resealCRC(data []byte) []byte {
	if len(data) < 4 {
		return data
	}
	body := data[:len(data)-4]
	return binary.LittleEndian.AppendUint32(body[:len(body):len(body)], crc32.ChecksumIEEE(body))
}

// FuzzDecodeSummary: arbitrary bytes — as given, and resealed under a
// valid CRC — never panic DecodeSummary and fail only with
// ErrCorruptSummary; what decodes holds no more tuples than the input has
// bytes and survives Encode → Decode → Encode byte for byte. Seeds under
// testdata/fuzz/: a valid summary, rankedSummary's (φT = 0.3, with a
// leaf carrying a rank index and a tail tier), a truncated one, a header
// claiming more tuples and leaves than the payload holds, and a tuple
// count one above the leaf indices that follow.
func FuzzDecodeSummary(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, resealCRC(data)} {
			sum, err := DecodeSummary(in)
			if err != nil {
				if !errors.Is(err, ErrCorruptSummary) {
					t.Fatalf("DecodeSummary failed untyped: %v", err)
				}
				continue
			}
			if len(sum.LeafOf) > len(in) || len(sum.Multi) > len(in) {
				t.Fatalf("%d bytes decoded into %d tuples and %d leaves", len(in), len(sum.LeafOf), len(sum.Multi))
			}
			enc := EncodeSummary(sum)
			again, err := DecodeSummary(enc)
			if err != nil {
				t.Fatalf("re-decoding an encoded summary: %v", err)
			}
			if re := EncodeSummary(again); !bytes.Equal(re, enc) {
				t.Fatalf("Encode → Decode → Encode changed the bytes (%d → %d)", len(enc), len(re))
			}
		}
	})
}
