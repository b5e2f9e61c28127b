package analysis

import (
	"repro/internal/isa"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// SpecConfig parameterises the value-speculation timing model: a W-wide
// machine with unit-latency execution, unbounded window, perfect control
// prediction, and value speculation gated by a confidence threshold.
// Mispredicted speculations charge a recovery penalty to the consuming
// instruction — an approximation of squash-and-reexecute.
//
// This is the quantitative form of the paper's §1.2 argument: "for the
// potential to be realized, it is imperative to have high prediction
// accuracy and infrequent misspeculation. Misspeculation can be mitigated
// somewhat with the use of confidence mechanisms; these are probably
// essential."
type SpecConfig struct {
	// Width is the fetch/issue width (instructions per cycle).
	Width int
	// Threshold gates speculation: operands are used speculatively only
	// when their confidence counter is at least Threshold. 0 speculates on
	// every available prediction.
	Threshold uint8
	// MaxConfidence saturates the confidence counters.
	MaxConfidence uint8
	// Penalty is the recovery charge (cycles) for consuming a wrong
	// speculated value.
	Penalty uint64
}

// SpecStats is the outcome of one timing-model run.
type SpecStats struct {
	Name         string
	Predictor    string
	Config       SpecConfig
	Instructions uint64
	Cycles       uint64
	// Speculations counts operands consumed speculatively; Misspeculations
	// the wrong ones.
	Speculations    uint64
	Misspeculations uint64
}

// IPC returns instructions per cycle.
func (s SpecStats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// MisspecPct returns the fraction of speculations that were wrong.
func (s SpecStats) MisspecPct() float64 {
	if s.Speculations == 0 {
		return 0
	}
	return 100 * float64(s.Misspeculations) / float64(s.Speculations)
}

// SpecSim is the streaming form of the timing model: feed events one at a
// time with Observe and read the run's statistics with Stats. The fetch
// cycle of each instruction is its position in the observed stream divided
// by the machine width, so a trace file and the same events in memory
// give identical output. Memory stays O(touched memory
// words + predictor), independent of trace length, so a suite can drive
// several sims (one per threshold) in a single pass off a trace-file
// reader without materializing the events.
type SpecSim struct {
	cfg       SpecConfig
	name      string
	predName  string
	pred      *predictor.Confidence
	regs      [isa.NumRegs]uint64
	mem       map[uint32]uint64
	idx       uint64
	lastCycle uint64
	specs     uint64
	misspecs  uint64
}

// NewSpecSim builds a timing-model simulator with the given predictor kind
// on the consumer side (per (PC, slot) keys, immediate update — the
// model's input-side arrangement). It panics if cfg.Width is not positive;
// a zero cfg.MaxConfidence defaults to 7.
func NewSpecSim(name string, kind predictor.Kind, cfg SpecConfig) *SpecSim {
	if cfg.Width <= 0 {
		panic("analysis: speculation width must be positive")
	}
	if cfg.MaxConfidence == 0 {
		cfg.MaxConfidence = 7
	}
	return &SpecSim{
		cfg:      cfg,
		name:     name,
		predName: kind.String(),
		pred:     predictor.NewConfidence(kind.New(), 16, cfg.MaxConfidence),
		mem:      make(map[uint32]uint64),
	}
}

// Observe issues one dynamic instruction through the timing model.
func (s *SpecSim) Observe(e *trace.Event) {
	fetch := s.idx / uint64(s.cfg.Width)
	s.idx++
	ready := fetch
	var penalty uint64
	key := func(pc uint32, slot int) uint64 { return uint64(pc)<<2 | uint64(slot) }

	consume := func(avail uint64, k uint64, actual uint32) {
		conf := s.pred.ConfidenceOf(k)
		pv, ok := s.pred.Predict(k)
		s.pred.Update(k, actual)
		if ok && conf >= s.cfg.Threshold {
			s.specs++
			if pv == actual {
				return // speculated correctly: no wait
			}
			s.misspecs++
			penalty += s.cfg.Penalty
		}
		if avail > ready {
			ready = avail
		}
	}

	for slot := 0; slot < int(e.NSrc); slot++ {
		if e.SrcReg[slot] == 0 {
			continue
		}
		consume(s.regs[e.SrcReg[slot]], key(e.PC, slot), e.SrcVal[slot])
	}
	if isa.IsLoad(e.Op) {
		consume(s.mem[e.Addr&^3], key(e.PC, 2), e.MemVal)
	}

	done := ready + 1 + penalty
	if done > s.lastCycle {
		s.lastCycle = done
	}
	switch {
	case isa.IsStore(e.Op):
		s.mem[e.Addr&^3] = done
	case e.DstReg != isa.NoReg && e.DstReg != 0:
		s.regs[e.DstReg] = done
	}
}

// Stats returns the run's statistics for the events observed so far.
func (s *SpecSim) Stats() SpecStats {
	return SpecStats{
		Name: s.name, Predictor: s.predName, Config: s.cfg,
		Instructions: s.idx, Cycles: s.lastCycle,
		Speculations: s.specs, Misspeculations: s.misspecs,
	}
}
