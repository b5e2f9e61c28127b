package predictor

// LDBP is a load-driven delta-correlating value predictor in the spirit of
// the Load Driven Branch Predictor (Sheikh & Hower): instead of predicting
// a branch from its own outcome history, LDBP learns the arithmetic pattern
// of the value stream feeding the branch and computes the outcome from the
// predicted value. Behind this repository's value-predictor interface that
// becomes a per-key dual-delta table: each entry tracks the last observed
// value plus two candidate deltas with small saturating confidences — a
// favoured delta that drives predictions and a challenger that can unseat
// it once it proves itself. Regular address-like strides (a CSR adjacency
// scan) lock the favoured delta in; irregular inter-row jumps only knock
// the challenger around, so one wild value does not destroy a learned
// pattern (the same hysteresis idea as the 2-delta stride predictor, with
// an explicit competitive slot for the second pattern graph codes exhibit).
type LDBP struct {
	mask    uint64
	entries []ldbpEntry
	track   bool
	dig     uint64
}

type ldbpEntry struct {
	last  uint32
	d0    uint32 // favoured delta (drives predictions)
	d1    uint32 // challenger delta
	c0    uint8  // 0..3 confidence in d0
	c1    uint8  // 0..3 confidence in d1
	valid bool
}

// NewLDBP returns a load-driven delta predictor with 2^bits entries.
func NewLDBP(bits int) *LDBP {
	if bits <= 0 || bits > 30 {
		panic("predictor: table bits out of range")
	}
	return &LDBP{
		mask:    1<<uint(bits) - 1,
		entries: make([]ldbpEntry, 1<<uint(bits)),
	}
}

// Name implements Predictor.
func (p *LDBP) Name() string { return "ldbp" }

// Predict implements Predictor. An entry with no confident delta falls back
// to last-value behaviour (the favoured delta starts at zero).
func (p *LDBP) Predict(key uint64) (uint32, bool) {
	e := &p.entries[mix(key)&p.mask]
	if !e.valid {
		return 0, false
	}
	return e.last + e.d0, true
}

// Update implements Predictor.
func (p *LDBP) Update(key uint64, actual uint32) {
	i := mix(key) & p.mask
	e := &p.entries[i]
	var oa, ob uint64
	if p.track {
		oa, ob = packLDBPEntry(*e)
	}
	p.update(e, actual)
	if p.track {
		na, nb := packLDBPEntry(*e)
		p.dig ^= ldbpContrib(i, oa, ob) ^ ldbpContrib(i, na, nb)
	}
}

func (p *LDBP) update(e *ldbpEntry, actual uint32) {
	if !e.valid {
		e.last = actual
		e.valid = true
		return
	}
	delta := actual - e.last
	switch {
	case delta == e.d0:
		if e.c0 < 3 {
			e.c0++
		}
	case delta == e.d1:
		if e.c1 < 3 {
			e.c1++
		}
		if e.c1 > e.c0 {
			// The challenger has out-proven the favourite: promote it.
			e.d0, e.d1 = e.d1, e.d0
			e.c0, e.c1 = e.c1, e.c0
		}
	default:
		// Novel delta: erode the challenger, and replace it once spent.
		if e.c1 > 0 {
			e.c1--
		} else {
			e.d1 = delta
			e.c1 = 1
		}
	}
	e.last = actual
}

// Reset implements Predictor.
func (p *LDBP) Reset() {
	for i := range p.entries {
		p.entries[i] = ldbpEntry{}
	}
	p.dig = 0
}
