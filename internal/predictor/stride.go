package predictor

// Stride is the 2-delta stride predictor (Eickemeyer & Vassiliadis, first
// proposed for addresses) as used in the paper with 2^16 entries. The
// prediction is last + stride. Two stride fields provide the hysteresis:
// the prediction stride is replaced only when the same new stride has been
// observed twice in a row, so a single irregular value does not destroy a
// learned stride (and last-value behaviour is the stride-0 special case).
type Stride struct {
	mask    uint64
	entries []strideEntry
	track   bool
	dig     uint64
}

type strideEntry struct {
	last    uint32
	stride  uint32 // prediction stride (s1)
	observe uint32 // last observed stride (s2)
	valid   bool
	primed  bool // at least two observations, strides meaningful
}

// NewStride returns a 2-delta stride predictor with 2^bits entries.
func NewStride(bits int) *Stride {
	if bits <= 0 || bits > 30 {
		panic("predictor: table bits out of range")
	}
	return &Stride{
		mask:    1<<uint(bits) - 1,
		entries: make([]strideEntry, 1<<uint(bits)),
	}
}

// Name implements Predictor.
func (p *Stride) Name() string { return "stride" }

// Predict implements Predictor.
func (p *Stride) Predict(key uint64) (uint32, bool) {
	e := &p.entries[mix(key)&p.mask]
	if !e.valid {
		return 0, false
	}
	if !e.primed {
		// Only one value seen: fall back to last-value behaviour.
		return e.last, true
	}
	return e.last + e.stride, true
}

// Update implements Predictor.
func (p *Stride) Update(key uint64, actual uint32) {
	i := mix(key) & p.mask
	e := &p.entries[i]
	var oa, ob uint64
	if p.track {
		oa, ob = packStrideEntry(*e)
	}
	p.update(e, actual)
	if p.track {
		na, nb := packStrideEntry(*e)
		p.dig ^= strideContrib(i, oa, ob) ^ strideContrib(i, na, nb)
	}
}

func (p *Stride) update(e *strideEntry, actual uint32) {
	if !e.valid {
		e.last = actual
		e.valid = true
		return
	}
	delta := actual - e.last
	if !e.primed {
		e.stride = delta
		e.observe = delta
		e.primed = true
	} else {
		// 2-delta rule: adopt a new stride only when seen twice in a row.
		if delta == e.observe {
			e.stride = delta
		}
		e.observe = delta
	}
	e.last = actual
}

// Reset implements Predictor.
func (p *Stride) Reset() {
	for i := range p.entries {
		p.entries[i] = strideEntry{}
	}
	p.dig = 0
}
