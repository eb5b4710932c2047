package imply

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// snapCircuit builds a tiny circuit with two FFs and a gate for snapshot
// tests.
func snapCircuit(t *testing.T) *netlist.Circuit {
	t.Helper()
	b := netlist.NewBuilder("snap")
	b.PI("a")
	b.Gate("g1", logic.OpAnd, netlist.P("a"), netlist.P("f1"))
	b.Gate("g2", logic.OpOr, netlist.P("a"), netlist.P("f2"))
	b.DFF("f1", netlist.P("g1"), netlist.Clock{})
	b.DFF("f2", netlist.P("g2"), netlist.Clock{})
	b.PO("o", netlist.P("g2"))
	return b.MustBuild()
}

func TestSnapshotMirrorsDB(t *testing.T) {
	c := snapCircuit(t)
	db := NewDB(c)
	f1, f2 := lit(c, "f1", logic.One), lit(c, "f2", logic.Zero)
	g1 := lit(c, "g1", logic.One)
	db.Add(f1, f2, 0, false, 2)
	db.Add(g1, f2, 0, true, 0)
	db.Add(f1, g1, 1, false, 1)

	s := db.Freeze()
	if s.Circuit() != c {
		t.Fatal("snapshot circuit identity")
	}
	if s.Len() != db.Len() {
		t.Fatalf("Len = %d, want %d", s.Len(), db.Len())
	}
	if !s.Has(f1, f2, 0) || !s.Has(f2.Not(), f1.Not(), 0) {
		t.Fatal("Has must find both canonical and contrapositive forms")
	}
	if s.Has(f1, f2, 1) {
		t.Fatal("Has found an absent displacement")
	}
	if !s.IsCombinational(g1, f2, 0) || s.IsCombinational(f1, f2, 0) {
		t.Fatal("IsCombinational mismatch")
	}
	if s.DepthOf(f1, f2, 0) != 2 {
		t.Fatalf("DepthOf = %d, want 2", s.DepthOf(f1, f2, 0))
	}
	if s.CrossFrame() != 1 {
		t.Fatalf("CrossFrame = %d, want 1", s.CrossFrame())
	}
	ffff, gateFF, _ := s.Counts(true)
	wantFFFF, wantGateFF, _ := db.Counts(true)
	if ffff != wantFFFF || gateFF != wantGateFF {
		t.Fatalf("Counts = (%d,%d), want (%d,%d)", ffff, gateFF, wantFFFF, wantGateFF)
	}
	if !s.HasNamed("f1", logic.One, "f2", logic.Zero, 0) ||
		s.HasNamed("nope", logic.One, "f2", logic.Zero, 0) {
		t.Fatal("HasNamed mismatch")
	}
	if len(s.InvalidStates()) != len(db.InvalidStates()) {
		t.Fatal("InvalidStates mismatch")
	}
}

func TestSnapshotSameFrameSorted(t *testing.T) {
	c := snapCircuit(t)
	db := NewDB(c)
	f1 := lit(c, "f1", logic.One)
	// Insert in non-sorted order; the snapshot index must come out sorted.
	db.Add(f1, lit(c, "g2", logic.One), 0, false, 0)
	db.Add(f1, lit(c, "f2", logic.Zero), 0, false, 0)
	db.Add(f1, lit(c, "g1", logic.Zero), 0, false, 0)
	s := db.Freeze()
	got := s.SameFrameImplied(f1)
	if len(got) != 3 {
		t.Fatalf("SameFrameImplied = %d entries, want 3", len(got))
	}
	for i := 1; i < len(got); i++ {
		if !got[i-1].less(got[i]) {
			t.Fatalf("SameFrameImplied not sorted at %d: %v", i, got)
		}
	}
	if len(s.SameFrameImplied(lit(c, "a", logic.One))) != 0 {
		t.Fatal("unrelated literal must imply nothing")
	}
}

// TestSnapshotSameFrameConcurrent: the same-frame index is built on first
// use, so readers racing to that first call must all see the full index.
func TestSnapshotSameFrameConcurrent(t *testing.T) {
	c := snapCircuit(t)
	db := NewDB(c)
	f1 := lit(c, "f1", logic.One)
	db.Add(f1, lit(c, "g2", logic.One), 0, false, 0)
	db.Add(f1, lit(c, "f2", logic.Zero), 0, false, 0)
	db.Add(lit(c, "g1", logic.One), lit(c, "f2", logic.Zero), 0, true, 0)
	want := db.Freeze().SameFrameImplied(f1)
	s := db.Freeze()
	var wg sync.WaitGroup
	got := make([][]Lit, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = s.SameFrameImplied(f1)
		}()
	}
	wg.Wait()
	for i, g := range got {
		if !slices.Equal(g, want) {
			t.Fatalf("reader %d: SameFrameImplied = %v, want %v", i, g, want)
		}
	}
}

func TestSnapshotImmutableUnderLaterAdds(t *testing.T) {
	c := snapCircuit(t)
	db := NewDB(c)
	db.Add(lit(c, "f1", logic.One), lit(c, "f2", logic.Zero), 0, false, 0)
	s := db.Freeze()
	var before strings.Builder
	if err := s.Serialize(&before); err != nil {
		t.Fatal(err)
	}
	db.Add(lit(c, "f2", logic.One), lit(c, "g1", logic.Zero), 0, true, 0)
	var after strings.Builder
	if err := s.Serialize(&after); err != nil {
		t.Fatal(err)
	}
	if before.String() != after.String() {
		t.Fatal("snapshot changed after a later builder Add")
	}
	if s.Len() == db.Len() {
		t.Fatal("builder must have grown past the frozen snapshot")
	}
}

func TestSnapshotSerializeMatchesDB(t *testing.T) {
	c := snapCircuit(t)
	db := NewDB(c)
	db.Add(lit(c, "f1", logic.One), lit(c, "f2", logic.Zero), 0, false, 2)
	db.Add(lit(c, "g1", logic.One), lit(c, "f2", logic.One), 1, true, 1)
	var fromDB, fromSnap strings.Builder
	if err := db.Serialize(&fromDB); err != nil {
		t.Fatal(err)
	}
	if err := db.Freeze().Serialize(&fromSnap); err != nil {
		t.Fatal(err)
	}
	if fromDB.String() != fromSnap.String() {
		t.Fatalf("snapshot serialization diverged:\n%s\nvs\n%s", fromSnap.String(), fromDB.String())
	}
	// And the round trip re-reads into an equal builder.
	db2 := NewDB(c)
	if err := db2.Deserialize(strings.NewReader(fromSnap.String())); err != nil {
		t.Fatal(err)
	}
	if db2.Len() != db.Len() {
		t.Fatalf("round trip Len = %d, want %d", db2.Len(), db.Len())
	}
}
