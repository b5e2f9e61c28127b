package dpg

import "testing"

// items maps each generator in s to its distance, offset included.
func items(s inflSet) map[uint32]uint32 {
	m := map[uint32]uint32{}
	for _, it := range s.items {
		m[it.gen] = it.dist + s.off
	}
	return m
}

func TestSingleInfl(t *testing.T) {
	var m modelPass
	s := m.singleInfl(1, 7)
	if len(s.items) != 1 || s.items[0].gen != 7 || s.items[0].dist != 0 || s.off != 0 || s.over {
		t.Errorf("singleInfl = %+v", s)
	}
	if cap(s.items) != 1 {
		t.Errorf("singleton view has capacity %d: an append could write into the next slot", cap(s.items))
	}
}

// TestBumpedView pins the view contract: bumping shares the receiver's
// items, leaves its distances alone, and writes nothing.
func TestBumpedView(t *testing.T) {
	backing := []inflItem{{gen: 3, dist: 0}, {gen: 4, dist: 2}}
	s := inflSet{items: backing}
	b := s.bumped().bumped()
	if b.off != 2 || b.maxDist() != 4 {
		t.Errorf("twice bumped: off %d maxDist %d, want 2 and 4", b.off, b.maxDist())
	}
	if s.off != 0 || s.maxDist() != 2 {
		t.Errorf("bumped changed its receiver: off %d maxDist %d", s.off, s.maxDist())
	}
	if backing[0] != (inflItem{gen: 3, dist: 0}) || backing[1] != (inflItem{gen: 4, dist: 2}) {
		t.Errorf("bumped wrote its items: %+v", backing)
	}
	if &b.items[0] != &backing[0] {
		t.Error("bumped copied its items instead of sharing them")
	}
	// An empty set has no distances to raise, however often it is bumped.
	var e inflSet
	for i := 0; i < 5; i++ {
		e = e.bumped()
	}
	if e.maxDist() != 0 || len(e.items) != 0 {
		t.Errorf("empty set bumped 5 times: maxDist %d, %d items", e.maxDist(), len(e.items))
	}
}

func TestMergeUnionsMaxDistance(t *testing.T) {
	a := inflSet{items: []inflItem{{gen: 1, dist: 5}, {gen: 2, dist: 1}}}
	b := inflSet{items: []inflItem{{gen: 1, dist: 3}, {gen: 3, dist: 7}}}
	m := mergeInfl([]inflSet{a, b}, MaxTrackedGens, new([]inflItem))
	got := items(m)
	want := map[uint32]uint32{1: 5, 2: 1, 3: 7}
	if len(got) != len(want) {
		t.Fatalf("merged = %v, want %v", got, want)
	}
	for g, d := range want {
		if got[g] != d {
			t.Errorf("gen %d dist = %d, want %d (longest path wins)", g, got[g], d)
		}
	}
	if m.over {
		t.Error("merge under the cap must not set overflow")
	}
	if m.maxDist() != 7 {
		t.Errorf("maxDist = %d, want 7", m.maxDist())
	}
}

func TestMergeEdgeCases(t *testing.T) {
	if got := mergeInfl(nil, 4, nil); len(got.items) != 0 || got.over {
		t.Error("empty merge not empty")
	}
	one := inflSet{items: []inflItem{{gen: 5}}, off: 3}
	if got := mergeInfl([]inflSet{one}, 4, nil); len(got.items) != 1 || got.items[0].gen != 5 || got.off != 3 {
		t.Error("single-set merge should pass through, offset included")
	}
}

func TestTrimKeepsLargestDistances(t *testing.T) {
	s := inflSet{}
	for g := uint32(0); g < 10; g++ {
		s.items = append(s.items, inflItem{gen: g, dist: g * 10})
	}
	s.trim(3)
	if len(s.items) != 3 || !s.over {
		t.Fatalf("trim result: %d items, over=%v", len(s.items), s.over)
	}
	// The survivors must be the three largest distances (the earliest
	// generators, which Fig. 11's distance metric needs exact).
	got := items(s)
	for _, g := range []uint32{7, 8, 9} {
		if got[g] != g*10 {
			t.Errorf("survivor set %v missing gen %d", got, g)
		}
	}
	if s.maxDist() != 90 {
		t.Errorf("maxDist after trim = %d, want 90", s.maxDist())
	}
}

func TestMergeOverflowPropagates(t *testing.T) {
	over := inflSet{items: []inflItem{{gen: 1, dist: 1}}, over: true}
	clean := inflSet{items: []inflItem{{gen: 2, dist: 2}}}
	m := mergeInfl([]inflSet{over, clean}, MaxTrackedGens, new([]inflItem))
	if !m.over {
		t.Error("overflow flag lost in merge")
	}
}

func TestMergeCapsAtLimit(t *testing.T) {
	var sets []inflSet
	for g := uint32(0); g < 20; g++ {
		sets = append(sets, inflSet{items: []inflItem{{gen: g, dist: g}}})
	}
	m := mergeInfl(sets, 6, new([]inflItem))
	if len(m.items) != 6 || !m.over {
		t.Fatalf("capped merge: %d items, over=%v", len(m.items), m.over)
	}
	// Largest distances survive.
	got := items(m)
	for g := uint32(14); g < 20; g++ {
		if _, ok := got[g]; !ok {
			t.Errorf("survivors %v missing gen %d", got, g)
		}
	}
}

// TestMergeFoldsOffsets merges views carrying different offsets: the union
// holds each input's true distances, leaves the inputs untouched, and keeps
// the item order and trim choice of merging the same sets with the
// offsets already added to every item.
func TestMergeFoldsOffsets(t *testing.T) {
	a := inflSet{items: []inflItem{{gen: 1, dist: 2}, {gen: 2, dist: 0}}, off: 3}
	b := inflSet{items: []inflItem{{gen: 1, dist: 4}, {gen: 3, dist: 1}}, off: 1}
	c := inflSet{items: []inflItem{{gen: 4, dist: 0}, {gen: 2, dist: 9}}, off: 0}
	aItems := append([]inflItem(nil), a.items...)
	buf := make([]inflItem, 0, 1) // forces growth past the caller's buffer
	m := mergeInfl([]inflSet{a, b, c}, MaxTrackedGens, &buf)
	want := []inflItem{{gen: 1, dist: 5}, {gen: 2, dist: 9}, {gen: 3, dist: 2}, {gen: 4, dist: 0}}
	if m.off != 0 || m.over || len(m.items) != len(want) {
		t.Fatalf("merged = %+v, want items %+v", m, want)
	}
	for i := range want {
		if m.items[i] != want[i] {
			t.Errorf("item %d = %+v, want %+v (order follows first appearance)", i, m.items[i], want[i])
		}
	}
	if m.maxDist() != 9 {
		t.Errorf("maxDist = %d, want 9", m.maxDist())
	}
	for i := range aItems {
		if a.items[i] != aItems[i] {
			t.Errorf("merge wrote its input: %+v", a.items)
		}
	}

	// Trimming sees folded distances: with offsets, a set's raw dists
	// would pick a different survivor.
	lo := inflSet{items: []inflItem{{gen: 10, dist: 0}}, off: 5} // true distance 5
	hi := inflSet{items: []inflItem{{gen: 11, dist: 3}}}         // true distance 3
	mid := inflSet{items: []inflItem{{gen: 12, dist: 4}}}        // true distance 4
	got := items(mergeInfl([]inflSet{lo, hi, mid}, 2, new([]inflItem)))
	if _, ok := got[11]; ok || got[10] != 5 || got[12] != 4 {
		t.Errorf("capped merge of offset views kept %v, want gens 10 (5) and 12 (4)", got)
	}

	// The buffer keeps its growth, and reusing it gives the same answer.
	if cap(buf) < len(want) || &buf[0] != &m.items[0] {
		t.Errorf("merge did not hand its grown buffer back: cap %d", cap(buf))
	}
	again := mergeInfl([]inflSet{a, b, c}, MaxTrackedGens, &buf)
	for i := range want {
		if again.items[i] != want[i] {
			t.Errorf("reused buffer: item %d = %+v, want %+v", i, again.items[i], want[i])
		}
	}
}
