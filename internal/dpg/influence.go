package dpg

// Influence tracking for the path analysis of §4.5. Every predicted value
// carries the set of generator instances its predictability traces back to,
// together with the longest propagation distance from each. Sets are exact
// up to a cap; on overflow the entries with the largest distances (the
// "earliest" generators, the ones Fig. 11's distance metric needs) are kept
// and the set is flagged, so downstream statistics can exclude inexact
// counts where exactness matters.
//
// Sets are read-only views: a set never writes through its items, and
// bumping one is O(1) (it raises a distance offset and shares the items).
// The storage behind a view belongs to someone else — a value record, the
// model pass's merge buffer or its singleton scratch — and the view is only
// valid until that owner reuses it, which the model pass never does before
// the end of the event that made the view.

// inflItem is one (generator, longest-distance) pair. dist counts
// propagating nodes and arcs on the longest path from the generator to the
// value's producing element, less the owning set's offset.
type inflItem struct {
	gen  uint32
	dist uint32
}

// inflSet is a read-only view of an influence set: item i's distance is
// items[i].dist + off. The zero value is empty.
type inflSet struct {
	items []inflItem
	off   uint32 // added to every item's dist
	over  bool   // true when entries were dropped due to the cap
}

// bumped returns s with every distance incremented by one — the value has
// flowed through one more propagating element. It shares s's items.
func (s inflSet) bumped() inflSet {
	s.off++
	return s
}

// mergeInfl unions the contributions of several predicted inputs. Distances
// for the same generator take the maximum (longest path). The result is
// capped at capN items; when trimming, the largest distances win so the
// earliest-generator distance stays exact. With two or more inputs the
// union is built in *buf (the caller's scratch, reused from index 0 and
// kept with any growth) with every offset folded in; a single input is
// returned as is.
func mergeInfl(sets []inflSet, capN int, buf *[]inflItem) inflSet {
	switch len(sets) {
	case 0:
		return inflSet{}
	case 1:
		return sets[0]
	}
	out := inflSet{items: (*buf)[:0]}
	for _, s := range sets {
		if s.over {
			out.over = true
		}
		for _, it := range s.items {
			out.add(inflItem{gen: it.gen, dist: it.dist + s.off})
		}
	}
	out.trim(capN)
	*buf = out.items
	return out
}

// add unions one item into a set under construction (max distance wins for
// duplicates). Only mergeInfl calls it, on its own buffer, with off zero.
func (s *inflSet) add(it inflItem) {
	for i := range s.items {
		if s.items[i].gen == it.gen {
			if it.dist > s.items[i].dist {
				s.items[i].dist = it.dist
			}
			return
		}
	}
	s.items = append(s.items, it)
}

// trim enforces the cap on a set under construction, dropping the smallest
// distances first.
func (s *inflSet) trim(capN int) {
	if len(s.items) <= capN {
		return
	}
	// Selection by repeated max keeps this allocation-free; sets are tiny.
	for len(s.items) > capN {
		minIdx := 0
		for i := 1; i < len(s.items); i++ {
			if s.items[i].dist < s.items[minIdx].dist {
				minIdx = i
			}
		}
		s.items[minIdx] = s.items[len(s.items)-1]
		s.items = s.items[:len(s.items)-1]
	}
	s.over = true
}

// maxDist returns the largest distance in the set (0 for empty sets,
// however often they were bumped).
func (s inflSet) maxDist() uint32 {
	if len(s.items) == 0 {
		return 0
	}
	var m uint32
	for _, it := range s.items {
		m = max(m, it.dist)
	}
	return m + s.off
}
