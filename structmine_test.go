package structmine

import (
	"path/filepath"
	"strings"
	"testing"

	"structmine/internal/datagen"
	"structmine/internal/fd"
)

func db2(t *testing.T) *Relation {
	t.Helper()
	db, err := datagen.NewDB2Sample()
	if err != nil {
		t.Fatal(err)
	}
	return db.Joined
}

func TestMinerEndToEndOnDB2Sample(t *testing.T) {
	r := db2(t)
	m := NewMiner(r, DefaultOptions())

	if !strings.Contains(m.Describe(), "90 tuples") {
		t.Fatalf("describe: %s", m.Describe())
	}
	if m.TupleInfo() <= 0 {
		t.Fatal("I(T;V) must be positive")
	}

	fds, err := m.MineFDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(fds) == 0 {
		t.Fatal("no FDs discovered")
	}
	cover := MinCover(fds)
	if len(cover) == 0 || len(cover) > len(fds) {
		t.Fatalf("cover size %d of %d", len(cover), len(fds))
	}

	ranked, err := m.RankFDs(cover)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) == 0 {
		t.Fatal("no ranked FDs")
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Rank < ranked[i-1].Rank-1e-12 {
			t.Fatal("ranks not ascending")
		}
	}

	// The paper's top-ranked dependency family on this data: the
	// department attributes (DeptNo/DepName/MgrNo) carry the most
	// redundancy. The top FD must be about department attributes.
	top := ranked[0]
	label := m.FormatFD(top.FD)
	if !strings.Contains(label, "Dep") && !strings.Contains(label, "Mgr") {
		t.Errorf("top-ranked FD %s does not involve department attributes", label)
	}

	rad, rtr := m.MeasureFD(top.FD)
	if rad < 0.5 || rtr < 0.5 {
		t.Errorf("top FD should have high duplication: RAD=%v RTR=%v", rad, rtr)
	}
}

func TestMinerDuplicateDetectionFacade(t *testing.T) {
	r := db2(t)
	inj := datagen.InjectExactDuplicates(r, 3, 17)
	m := NewMiner(inj.Dirty, DefaultOptions())
	rep := m.FindDuplicateTuples()
	if len(rep.Summaries) == 0 {
		t.Fatal("no duplicate summaries after injecting exact duplicates")
	}
	for i, dt := range inj.DirtyTuples {
		src := inj.Sources[i]
		if rep.Assign[dt].Cluster != rep.Assign[src].Cluster {
			t.Errorf("duplicate %d not grouped with source", i)
		}
	}
}

func TestMinerHorizontalPartitionFacade(t *testing.T) {
	b := NewRelation("mixed", []string{"Kind", "X", "Y"})
	skus := []string{"sku1", "sku2", "sku3", "sku4", "sku5"}
	techs := []string{"techA", "techB", "techC"}
	for i := 0; i < 25; i++ {
		b.MustAdd("order", skus[i%len(skus)], "box")
	}
	for i := 0; i < 15; i++ {
		b.MustAdd("service", "visit", techs[i%len(techs)])
	}
	m := NewMiner(b.Relation(), DefaultOptions())
	res := m.HorizontalPartition(0)
	if res.K != 2 {
		t.Fatalf("auto k = %d, want 2", res.K)
	}
	if len(res.Clusters[0]) != 25 || len(res.Clusters[1]) != 15 {
		t.Fatalf("cluster sizes %d/%d", len(res.Clusters[0]), len(res.Clusters[1]))
	}
}

func TestMinerValueClusteringFacade(t *testing.T) {
	r := db2(t)
	m := NewMiner(r, DefaultOptions())
	vc := m.ClusterValues()
	if len(vc.DuplicateGroups()) == 0 {
		t.Fatal("joined relation must expose duplicate value groups")
	}
	g, vc2 := m.GroupAttributes(false)
	if vc2 == nil || len(g.AttrIdx) == 0 {
		t.Fatal("attribute grouping empty")
	}
	// EmpNo co-occurs with FirstName etc: the employee attributes are in A^D.
	found := false
	for _, a := range g.AttrIdx {
		if r.Attrs[a] == "EmpNo" {
			found = true
		}
	}
	if !found {
		t.Error("EmpNo should participate in duplicate groups")
	}
}

func TestMinerDoubleClustering(t *testing.T) {
	r := db2(t)
	m := NewMiner(r, Options{PhiT: 0.5, PhiV: 0.5, B: 4, Psi: 0.5, MaxLeaves: 100})
	vc := m.ClusterValuesDouble()
	if len(vc.Groups) == 0 {
		t.Fatal("double clustering produced no groups")
	}
	total := 0
	for _, g := range vc.Groups {
		total += len(g.Values)
	}
	if total != r.D() {
		t.Fatalf("double clustering covers %d of %d values", total, r.D())
	}
}

func TestMinerMeasures(t *testing.T) {
	r := db2(t)
	m := NewMiner(r, DefaultOptions())
	rad, err := m.RAD([]string{"DepName", "MgrNo"})
	if err != nil {
		t.Fatal(err)
	}
	if rad <= 0.3 {
		t.Errorf("RAD(DepName,MgrNo) = %v, expected substantial duplication", rad)
	}
	if _, err := m.RAD([]string{"Nope"}); err == nil {
		t.Error("unknown attribute must error")
	}
	rtr, err := m.RTR([]string{"DepName"})
	if err != nil {
		t.Fatal(err)
	}
	if rtr <= 0.5 {
		t.Errorf("RTR(DepName) = %v (9 departments over 90 tuples)", rtr)
	}
	if _, err := m.RTR([]string{"Nope"}); err == nil {
		t.Error("unknown attribute must error")
	}
}

func TestOptionsNormalization(t *testing.T) {
	// Structurally invalid values are repaired…
	m := NewMiner(db2(t), Options{Psi: -1})
	if m.opts.B != 4 || m.opts.Psi != 0.5 || m.opts.MaxLeaves != 100 {
		t.Fatalf("defaults not applied: %+v", m.opts)
	}
	// …but explicit zeros are honored: ψ = 0 is a meaningful setting
	// (threshold disabled), not a request for the default.
	z := NewMiner(db2(t), Options{Psi: 0})
	if z.opts.Psi != 0 {
		t.Fatalf("explicit Psi 0 promoted to %g", z.opts.Psi)
	}
	d := NewMiner(db2(t), DefaultOptions())
	if d.opts.Psi != 0.5 || d.opts.B != 4 || d.opts.MaxLeaves != 100 {
		t.Fatalf("DefaultOptions diverged: %+v", d.opts)
	}
}

func TestReadCSVRoundTripThroughFacade(t *testing.T) {
	r := db2(t)
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV("rt", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != r.N() || got.M() != r.M() {
		t.Fatal("facade CSV round trip changed shape")
	}
}

func TestFormatFD(t *testing.T) {
	r := db2(t)
	m := NewMiner(r, DefaultOptions())
	f := FD{LHS: fd.NewAttrSet(0), RHS: fd.NewAttrSet(1)}
	s := m.FormatFD(f)
	if !strings.Contains(s, r.Attrs[0]) || !strings.Contains(s, "->") {
		t.Fatalf("format: %s", s)
	}
}

func TestMinerApproxFDsAndG3(t *testing.T) {
	r := db2(t)
	m := NewMiner(r, DefaultOptions())
	approx, err := m.MineApproxFDs(0.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range approx {
		if a.Err != 0 {
			t.Fatalf("eps=0 yielded approximate FD %v", a)
		}
		if g := m.G3(a.FD); g != 0 {
			t.Fatalf("G3 of exact FD %v = %v", a.FD, g)
		}
	}
	// DepName→MgrNo holds exactly.
	f := FD{LHS: fd.NewAttrSet(r.AttrIndex("DepName")), RHS: fd.NewAttrSet(r.AttrIndex("MgrNo"))}
	if g := m.G3(f); g != 0 {
		t.Fatalf("G3(DepName→MgrNo) = %v", g)
	}
}

func TestMinerStructureReport(t *testing.T) {
	r := db2(t)
	m := NewMiner(r, DefaultOptions())
	text, err := m.StructureReport()
	if err != nil {
		t.Fatal(err)
	}
	for _, section := range []string{"STRUCTURE REPORT", "ATTRIBUTE PROFILES", "RANKED DEPENDENCIES"} {
		if !strings.Contains(text, section) {
			t.Errorf("report missing %q", section)
		}
	}
}

func TestMinerDecompose(t *testing.T) {
	r := db2(t)
	m := NewMiner(r, DefaultOptions())
	f := FD{
		LHS: fd.NewAttrSet(r.AttrIndex("WorkDepNo")),
		RHS: fd.NewAttrSet(r.AttrIndex("DepName")).Add(r.AttrIndex("MgrNo")),
	}
	res, err := m.Decompose(f)
	if err != nil {
		t.Fatal(err)
	}
	if res.S1.N() != 9 {
		t.Fatalf("S1 rows %d, want 9 departments", res.S1.N())
	}
	if res.Reduction <= 0 {
		t.Fatalf("reduction %v", res.Reduction)
	}
	// An FD that does not hold must be rejected.
	bad := FD{LHS: fd.NewAttrSet(r.AttrIndex("Sex")), RHS: fd.NewAttrSet(r.AttrIndex("EmpNo"))}
	if _, err := m.Decompose(bad); err == nil {
		t.Fatal("invalid FD should not decompose")
	}
}

func TestMinerRankFDsWithGrouping(t *testing.T) {
	r := db2(t)
	m := NewMiner(r, DefaultOptions())
	g, _ := m.GroupAttributes(false)
	fds, err := m.MineFDs()
	if err != nil {
		t.Fatal(err)
	}
	ranked := m.RankFDsWithGrouping(MinCover(fds), g)
	if len(ranked) == 0 {
		t.Fatal("no ranked FDs")
	}
}

func TestReadCSVFileFacade(t *testing.T) {
	r := db2(t)
	path := filepath.Join(t.TempDir(), "r.csv")
	if err := r.WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != r.N() {
		t.Fatal("file round trip changed tuple count")
	}
	m := NewMiner(got, DefaultOptions())
	if m.Relation() != got {
		t.Fatal("Relation() should return the wrapped instance")
	}
}

func TestMinerMVDs(t *testing.T) {
	b := NewRelation("skills", []string{"Emp", "Skill", "Lang"})
	for _, row := range [][]string{
		{"pat", "sql", "en"}, {"pat", "sql", "fr"},
		{"pat", "go", "en"}, {"pat", "go", "fr"},
		{"sal", "ml", "de"},
	} {
		b.MustAdd(row...)
	}
	m := NewMiner(b.Relation(), DefaultOptions())
	mvds, err := m.MineMVDs(1, false)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range mvds {
		if v.LHS == fd.NewAttrSet(0) {
			found = true
		}
	}
	if !found {
		t.Fatalf("Emp →→ Skill not found: %v", mvds)
	}
}

// uniqueOn reports whether no two tuples of r agree on every attribute
// of attrs, comparing their rendered values.
func uniqueOn(r *Relation, attrs []int) bool {
	seen := map[string]bool{}
	for t := 0; t < r.N(); t++ {
		var key strings.Builder
		for _, a := range attrs {
			key.WriteString(r.ValueString(r.Value(t, a)))
			key.WriteByte(0)
		}
		if seen[key.String()] {
			return false
		}
		seen[key.String()] = true
	}
	return true
}

func TestMinerKeys(t *testing.T) {
	r := db2(t)
	m := NewMiner(r, DefaultOptions())
	keys, err := m.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) == 0 {
		t.Fatal("joined relation should have candidate keys")
	}
	// (EmpNo, ProjNo) identifies each join row.
	want := fd.NewAttrSet(r.AttrIndex("EmpNo"), r.AttrIndex("ProjNo"))
	found := false
	for _, k := range keys {
		if k == want {
			found = true
		}
		if !uniqueOn(r, k.Attrs()) {
			t.Fatalf("reported key %v is not unique", k.Attrs())
		}
	}
	if !found {
		t.Errorf("(EmpNo, ProjNo) should be a candidate key; got %d keys", len(keys))
	}
}
