package dpg

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/isa"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// This file is the epoch-speculative execution of the sequential model
// pass. The pass is order-dependent because every event updates predictor
// state later events' outcomes depend on — but each predictor *verdict* is
// a pure function of the event stream and the Config (see predictorOracle).
// That makes the predictor work, which dominates the pass, decomposable
// into independent state units, one per predictor category of the paper:
//
//	input   — the input-side value predictor (plus the output stream when
//	          Config.SharedInputOutput aliases the two sides)
//	output  — the output-side value predictor
//	branch  — the gshare branch predictor
//	addr    — the stride address predictor
//
// Run-ahead predictor chains advance each unit through the trace one epoch
// at a time, recording the per-event outcome bits; the committer replays
// the bits through the classification sweep (newModelPassOracle), which
// stays strictly sequential. Speculation is validated, not trusted: every
// chain stamps each epoch record with an O(1) incremental digest of its
// entry state, and the committer compares it against the digest of the
// state it has committed. On a mismatch (a diverged epoch — in practice
// only inducible via the test-only corruption hook, since the chains
// compute exact state) the committer rebuilds the unit from its last
// trusted checkpoint snapshot, replays at most Checkpoint-1 epochs (the
// replay bound), serves the epoch live, and resyncs the chain from a fresh
// snapshot. A unit that keeps diverging is abandoned: the committer runs
// it live for the rest of the trace, degrading gracefully to sequential
// cost instead of thrashing on replays. All of this recovery machinery is
// per unit: one poisoned unit replays alone while its siblings keep
// speculating.
const (
	// specLookahead is how many finished epochs a chain may buffer per unit
	// before it blocks waiting for the committer.
	specLookahead = 2
	// maxSpecMisses is the number of consecutive diverged epochs after
	// which the committer abandons speculation for a unit.
	maxSpecMisses = 3
	// DefaultSpecCheckpoint is the default checkpoint interval: chains
	// materialize a full state snapshot every this many epochs, bounding
	// divergence replay to Checkpoint-1 epochs.
	DefaultSpecCheckpoint = 8
	// DefaultSpecEpochEvents is the default epoch length, in events, for
	// the streaming SpecRun.
	DefaultSpecEpochEvents = 1 << 16
)

// SpecConfig parameterises a speculative run.
type SpecConfig struct {
	// Workers bounds the number of predictor chains (each chain is one
	// goroutine owning one or more units). <= 0 uses min(GOMAXPROCS, 4);
	// either way the count is clamped to the units in play: 4, or 3 under
	// SharedInputOutput.
	Workers int
	// Epochs is the number of epochs the in-memory RunSpeculative splits
	// the trace into. <= 0 picks 4 per chain. Epoch boundaries never
	// change any model figure (the test battery proves this); they only
	// trade pipelining granularity against snapshot overhead.
	Epochs int
	// EpochEvents is the epoch length, in events, used by the streaming
	// SpecRun. <= 0 uses DefaultSpecEpochEvents.
	EpochEvents int
	// Checkpoint is the snapshot interval in epochs — the divergence
	// replay bound. <= 0 uses DefaultSpecCheckpoint for streaming runs
	// (SpecRun), where the interval also bounds the retained event
	// window; in-memory runs (RunSpeculative) default to no periodic
	// snapshots, since every epoch stays resident and a divergence can
	// always replay from the start of the trace.
	Checkpoint int
	// Stats, when non-nil, receives run statistics on success.
	Stats *SpecStats

	// corrupt, when non-nil, is the test-only chaos hook: it is asked
	// before a chain processes (unit, epoch) and, when it returns true,
	// the unit's state is poisoned first, forcing the committer to detect
	// divergence and recover. Settable only from within this package.
	corrupt func(unit unitKind, epoch int) bool
}

// SpecStats reports what a speculative run did.
type SpecStats struct {
	Epochs       int  // epochs committed
	Chains       int  // predictor chains run
	Units        int  // units in play (chains share them)
	Diverged     int  // epoch records rejected by the entry-digest check
	Replayed     int  // epochs served live after a divergence
	ReplayEpochs int  // epochs re-executed to rebuild state from a checkpoint
	Resyncs      int  // chain resynchronisations issued
	Abandoned    int  // units permanently switched to live execution
	Fallback     bool // predictor lacks checkpoint support; ran sequentially
}

// unitKind identifies one of the four predictor state categories, each one
// independent state unit of the speculative pass.
type unitKind int

const (
	unitInput unitKind = iota
	unitOutput
	unitBranch
	unitAddr
	numUnitKinds
)

func (u unitKind) String() string {
	switch u {
	case unitInput:
		return "input"
	case unitOutput:
		return "output"
	case unitBranch:
		return "branch"
	case unitAddr:
		return "addr"
	}
	return fmt.Sprintf("unitKind(%d)", int(u))
}

// bitstream is an append-only bit vector: one recorded predictor verdict
// per bit, in stream order.
type bitstream struct {
	w []uint64
	n int
}

// push appends one bit. A nil receiver discards (used when replaying
// events purely for their state effect).
func (b *bitstream) push(v bool) {
	if b == nil {
		return
	}
	if b.n>>6 == len(b.w) {
		b.w = append(b.w, 0)
	}
	if v {
		b.w[b.n>>6] |= 1 << uint(b.n&63)
	}
	b.n++
}

// bitCursor reads a bitstream front to back.
type bitCursor struct {
	s       *bitstream
	i       int
	starved bool
}

func (c *bitCursor) next() bool {
	if c.s == nil || c.i >= c.s.n {
		c.starved = true
		return false
	}
	v := c.s.w[c.i>>6]>>uint(c.i&63)&1 == 1
	c.i++
	return v
}

// drained reports whether every recorded bit was consumed, exactly.
func (c *bitCursor) drained() bool {
	return !c.starved && (c.s == nil || c.i == c.s.n)
}

// unitRecord is one unit's speculative result for one epoch.
type unitRecord struct {
	unit     unitKind
	gen      int // speculation generation; bumped by every resync
	epoch    int
	entryDig uint64             // state digest at epoch entry — the divergence check
	exitDig  uint64             // state digest at epoch exit
	snap     predictor.Snapshot // exit-state checkpoint, on checkpoint epochs
	a, b     bitstream          // verdicts (b: output stream of a shared input unit)
	err      error              // first event-validation failure inside the epoch
}

// resyncMsg rewinds one unit of a chain to a committer-provided state, or
// abandons it (nil snap).
type resyncMsg struct {
	unit  unitKind
	gen   int
	epoch int
	snap  predictor.Snapshot
}

// chainUnit is the chain-side (and committer-replica-side) execution state
// of one unit: the predictor instance plus the event schedule that drives
// it. The schedules mirror modelPass.Observe exactly — which predictor
// calls happen, with which keys and values, per event.
type chainUnit struct {
	unit        unitKind
	shared      bool // input unit also records the output stream
	cfg         *Config
	staticCount []uint64

	value predictor.Predictor // input/output units
	gsh   *predictor.GShare   // branch unit
	str   *predictor.Stride   // addr unit
	ck    predictor.Checkpointer

	records chan *unitRecord
	gen     int
	next    int // next epoch to speculate
	stopped bool
}

func (u *chainUnit) predictValue(key uint64, actual uint32) bool {
	pv, ok := u.value.Predict(key)
	u.value.Update(key, actual)
	return ok && pv == actual
}

// observe advances the unit's state over one event, recording verdict bits
// into a (and b for the shared input unit). Nil streams replay state only.
func (u *chainUnit) observe(e *trace.Event, a, b *bitstream) {
	pc, op := e.PC, e.Op
	switch u.unit {
	case unitInput:
		for slot := 0; slot < int(e.NSrc); slot++ {
			if e.SrcReg[slot] == 0 {
				continue
			}
			a.push(u.predictValue(inputKey(pc, slot), e.SrcVal[slot]))
		}
		if isa.IsLoad(op) || op == isa.OpIn {
			a.push(u.predictValue(inputKey(pc, 2), e.MemVal))
		}
		if u.shared {
			u.observeOutput(e, b)
		}
	case unitOutput:
		u.observeOutput(e, a)
	case unitBranch:
		if isa.IsBranch(op) {
			pt := u.gsh.Predict(pc)
			u.gsh.Update(pc, e.Taken)
			a.push(pt == e.Taken)
		}
	case unitAddr:
		if isa.MemWidth(op) != 0 {
			av, ok := u.str.Predict(uint64(pc))
			u.str.Update(uint64(pc), e.Addr)
			a.push(ok && av == e.Addr)
		}
	}
}

func (u *chainUnit) observeOutput(e *trace.Event, bs *bitstream) {
	op := e.Op
	if !isa.WritesValue(op) || isa.IsBranch(op) {
		return
	}
	if _, _, isPass := isa.DataSlot(op); isPass {
		// Pass-through instructions copy their data input's prediction and
		// never consult the output predictor.
		return
	}
	bs.push(u.predictValue(outputKey(u.cfg, e.PC, e), e.DstVal))
}

// poison corrupts the unit's state (chaos hook): an update under a key no
// real event produces, so the state — and its honest digest — diverge from
// what the committer expects, and keep re-diverging after every resync
// while the hook stays on.
func (u *chainUnit) poison() {
	switch {
	case u.value != nil:
		u.value.Update(^uint64(0), 0xDEADBEEF)
	case u.gsh != nil:
		u.gsh.Update(0x7fffffff, true)
		u.gsh.Update(0x7fffffff, false)
		u.gsh.Update(0x7fffffff, true)
	default:
		u.str.Update(^uint64(0), 0xDEADBEEF)
	}
}

func (u *chainUnit) reset() {
	switch {
	case u.value != nil:
		u.value.Reset()
	case u.gsh != nil:
		u.gsh.Reset()
	default:
		u.str.Reset()
	}
}

// processEpoch speculates one epoch: validate each event with exactly the
// committer's acceptance rule (checkModelEvent), advance the unit, record
// the verdicts. The record carries entry/exit digests and, on checkpoint
// epochs, a full snapshot the committer can later replay from.
func (u *chainUnit) processEpoch(r *specRun, epoch int, events []trace.Event) *unitRecord {
	if f := r.spec.corrupt; f != nil && f(u.unit, epoch) {
		u.poison()
	}
	rec := &unitRecord{unit: u.unit, gen: u.gen, epoch: epoch, entryDig: u.ck.Digest()}
	for i := range events {
		e := &events[i]
		if err := checkModelEvent(e, u.staticCount); err != nil {
			rec.err = err
			break
		}
		u.observe(e, &rec.a, &rec.b)
	}
	rec.exitDig = u.ck.Digest()
	if rec.err == nil && (epoch+1)%r.checkpoint == 0 {
		rec.snap = u.ck.Snapshot()
	}
	return rec
}

// chain is one worker goroutine's set of units plus its resync channel.
type chain struct {
	units  []*chainUnit
	resync chan resyncMsg
}

// nextUnit picks the runnable unit that is furthest behind, so a resynced
// unit catches back up before the others run farther ahead.
func (c *chain) nextUnit() *chainUnit {
	var best *chainUnit
	for _, u := range c.units {
		if u.stopped {
			continue
		}
		if best == nil || u.next < best.next {
			best = u
		}
	}
	return best
}

// apply rewinds (or abandons) one unit per a committer resync.
func (c *chain) apply(m resyncMsg) {
	for _, u := range c.units {
		if u.unit != m.unit {
			continue
		}
		if m.snap == nil {
			u.stopped = true
			return
		}
		u.gen = m.gen
		u.next = m.epoch
		// Restore cannot fail here (same constructor, same geometry). If it
		// somehow does, the unit's digest no longer matches the committer's,
		// so every subsequent epoch reads as diverged and the committer
		// abandons the unit — the safe outcome — rather than trusting it.
		_ = u.ck.Restore(m.snap)
		u.ck.TrackDigest(true)
		return
	}
}

// epoch store -------------------------------------------------------------

type epochStatus int

const (
	epochReady epochStatus = iota
	epochEOF
	epochGone
	epochAborted
)

// epochStore hands epochs of the event stream to the chains and the
// committer. The in-memory runner prefills it with subslices of the trace
// (window 0: unbounded, nothing is copied); the streaming runner feeds it
// under a bounded retention window, which both backpressures the producer
// and keeps every epoch a divergence replay could need resident.
type epochStore struct {
	mu      sync.Mutex
	cond    *sync.Cond
	epochs  [][]trace.Event // epochs[i-base]
	base    int
	next    int
	window  int // 0 = unbounded
	eof     bool
	aborted bool
}

func newEpochStore(window int) *epochStore {
	s := &epochStore{window: window}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// put appends one epoch, blocking while the retention window is full. It
// reports false when the store was aborted.
func (s *epochStore) put(events []trace.Event) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.window > 0 && s.next-s.base >= s.window && !s.aborted {
		s.cond.Wait()
	}
	if s.aborted {
		return false
	}
	s.epochs = append(s.epochs, events)
	s.next++
	s.cond.Broadcast()
	return true
}

// finish marks the end of the stream.
func (s *epochStore) finish() {
	s.mu.Lock()
	s.eof = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// get returns epoch i, blocking until it is available.
func (s *epochStore) get(i int) ([]trace.Event, epochStatus) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		switch {
		case s.aborted:
			return nil, epochAborted
		case i < s.base:
			return nil, epochGone
		case i < s.next:
			return s.epochs[i-s.base], epochReady
		case s.eof:
			return nil, epochEOF
		}
		s.cond.Wait()
	}
}

// release drops every epoch below newBase from the retention window.
func (s *epochStore) release(newBase int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if newBase > s.next {
		newBase = s.next
	}
	if newBase <= s.base {
		return
	}
	drop := newBase - s.base
	n := copy(s.epochs, s.epochs[drop:])
	for k := n; k < len(s.epochs); k++ {
		s.epochs[k] = nil
	}
	s.epochs = s.epochs[:n]
	s.base = newBase
	s.cond.Broadcast()
}

func (s *epochStore) abort() {
	s.mu.Lock()
	s.aborted = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// committer ---------------------------------------------------------------

// unitCommit is the committer's view of one unit: the trusted state digest
// and checkpoint, the record stream from the unit's chain, and the live
// replica used for divergence recovery.
type unitCommit struct {
	unit    unitKind
	ch      *chain
	records chan *unitRecord

	gen    int
	expect int    // epoch of the next record this unit's chain owes us
	dig    uint64 // digest of the committed state at the current boundary

	snap      predictor.Snapshot // last trusted checkpoint (nil = initial state)
	snapEpoch int                // boundary the checkpoint sits at

	live     *chainUnit // committer-owned replica, built on first divergence
	liveAt   int        // boundary the replica's state sits at (-1 = unset)
	liveMode bool       // abandoned: serve live permanently
	misses   int        // consecutive diverged epochs

	rec        *unitRecord // record adopted for the epoch being committed
	curA, curB bitCursor
}

// fetch returns the next current-generation record, discarding speculation
// that predates the unit's last resync. It gives up once done is closed: a
// shut-down chain never sends the record the committer is waiting for.
func (uc *unitCommit) fetch(done <-chan struct{}) (*unitRecord, error) {
	for {
		var rec *unitRecord
		select {
		case rec = <-uc.records:
		case <-done:
			return nil, fmt.Errorf("%w: run aborted", ErrSpeculation)
		}
		if rec.gen != uc.gen || rec.epoch < uc.expect {
			continue // stale: produced before the chain saw our resync
		}
		if rec.epoch != uc.expect {
			return nil, fmt.Errorf("%w: unit %s expected epoch %d, got %d",
				ErrSpeculation, uc.unit, uc.expect, rec.epoch)
		}
		uc.expect++
		return rec, nil
	}
}

// specOracle is the committer's predictorOracle: per category it either
// replays the recorded verdict bits of an adopted epoch record, or runs the
// unit's live replica (after a divergence or abandonment).
type specOracle struct {
	inC, outC, brC, adC *bitCursor          // nil = serve live
	inP, outP           predictor.Predictor // live replicas, set where the cursor is nil
	brG                 *predictor.GShare
	adS                 *predictor.Stride
}

func (o *specOracle) predictInput(pc uint32, slot int, actual uint32) bool {
	if o.inC != nil {
		return o.inC.next()
	}
	key := inputKey(pc, slot)
	pv, ok := o.inP.Predict(key)
	o.inP.Update(key, actual)
	return ok && pv == actual
}

func (o *specOracle) predictOutput(key uint64, actual uint32) bool {
	if o.outC != nil {
		return o.outC.next()
	}
	pv, ok := o.outP.Predict(key)
	o.outP.Update(key, actual)
	return ok && pv == actual
}

func (o *specOracle) predictBranch(pc uint32, taken bool) bool {
	if o.brC != nil {
		return o.brC.next()
	}
	pt := o.brG.Predict(pc)
	o.brG.Update(pc, taken)
	return pt == taken
}

func (o *specOracle) predictAddr(pc uint32, addr uint32) bool {
	if o.adC != nil {
		return o.adC.next()
	}
	av, ok := o.adS.Predict(uint64(pc))
	o.adS.Update(uint64(pc), addr)
	return ok && av == addr
}

// specEventError carries the global index of the event the committed pass
// rejected, so each façade can format it per its own error contract.
type specEventError struct {
	idx uint64
	err error
}

func (e *specEventError) Error() string { return e.err.Error() }
func (e *specEventError) Unwrap() error { return e.err }

// specRun is one speculative execution: the epoch store, the chains, and
// the sequential committer.
type specRun struct {
	cfg         Config
	spec        SpecConfig
	checkpoint  int
	staticCount []uint64
	shared      bool

	m      *modelPass
	oracle *specOracle
	store  *epochStore
	chains []*chain

	commitUnits []*unitCommit
	byKind      [numUnitKinds]*unitCommit // nil output unit under shared input/output

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	stats     SpecStats
	globalIdx uint64
}

// buildUnit constructs the execution state of one unit. Factory panics are
// converted at this boundary, like newModelPass does.
func (r *specRun) buildUnit(unit unitKind, reuse predictor.Predictor) (u *chainUnit, err error) {
	defer func() {
		if p := recover(); p != nil {
			u, err = nil, fmt.Errorf("%w: %v", ErrConfig, p)
		}
	}()
	u = &chainUnit{
		unit:        unit,
		shared:      r.shared && unit == unitInput,
		cfg:         &r.cfg,
		staticCount: r.staticCount,
	}
	switch unit {
	case unitInput, unitOutput:
		p := reuse
		if p == nil {
			p = r.cfg.Predictor()
		}
		ck, ok := p.(predictor.Checkpointer)
		if !ok {
			return nil, fmt.Errorf("%w: predictor %q lost checkpoint support between constructions",
				ErrSpeculation, p.Name())
		}
		u.value, u.ck = p, ck
	case unitBranch:
		g := predictor.NewGShare(r.cfg.GShareBits)
		u.gsh, u.ck = g, g
	default:
		st := predictor.NewStride(predictor.DefaultTableBits)
		u.str, u.ck = st, st
	}
	u.ck.TrackDigest(true)
	return u, nil
}

// newSpecRun prepares a speculative execution and starts its chains.
// fallback is true (with a nil run) when the configured predictor does not
// support checkpointing; the caller then runs the plain sequential pass.
func newSpecRun(name string, staticCount []uint64, cfg Config, spec SpecConfig, streaming bool) (run *specRun, fallback bool, err error) {
	if cfg.Predictor == nil {
		return nil, false, fmt.Errorf("%w: Config.Predictor is required", ErrConfig)
	}
	if cfg.GShareBits == 0 {
		cfg.GShareBits = predictor.DefaultGShareBits
	}
	defer func() {
		if p := recover(); p != nil {
			run, fallback, err = nil, false, fmt.Errorf("%w: %v", ErrConfig, p)
		}
	}()
	probe := cfg.Predictor()
	if _, ok := probe.(predictor.Checkpointer); !ok {
		return nil, true, nil
	}
	predName := cfg.PredictorName
	if predName == "" {
		predName = probe.Name()
	}

	r := &specRun{
		cfg:         cfg,
		spec:        spec,
		staticCount: staticCount,
		shared:      cfg.SharedInputOutput,
		oracle:      &specOracle{},
		done:        make(chan struct{}),
	}
	r.checkpoint = spec.Checkpoint
	if r.checkpoint <= 0 {
		if streaming {
			r.checkpoint = DefaultSpecCheckpoint
		} else {
			// In-memory runs retain every epoch's events for the whole
			// pass, so replay-from-start is always available and periodic
			// snapshots (a full predictor state copy each — megabytes for
			// the context predictor) are pure overhead. Streaming runs
			// need them: the snapshot interval bounds the retained window.
			r.checkpoint = math.MaxInt
		}
	}

	units := []unitKind{unitInput, unitOutput, unitBranch, unitAddr}
	if r.shared {
		units = []unitKind{unitInput, unitBranch, unitAddr}
	}

	workers := spec.Workers
	if workers <= 0 {
		workers = min(runtime.GOMAXPROCS(0), 4)
	}
	workers = max(1, min(workers, len(units)))

	r.chains = make([]*chain, workers)
	for i := range r.chains {
		r.chains[i] = &chain{resync: make(chan resyncMsg, len(units))}
	}
	for i, unit := range units {
		var reuse predictor.Predictor
		if unit == unitInput {
			reuse = probe
		}
		cu, err := r.buildUnit(unit, reuse)
		if err != nil {
			return nil, false, err
		}
		cu.records = make(chan *unitRecord, specLookahead)
		c := r.chains[i%workers]
		c.units = append(c.units, cu)
		uc := &unitCommit{unit: unit, ch: c, records: cu.records, liveAt: -1}
		r.commitUnits = append(r.commitUnits, uc)
		r.byKind[unit] = uc
	}
	r.stats.Chains = workers
	r.stats.Units = len(units)

	window := 0
	if streaming {
		// Retain enough epochs for the deepest replay (checkpoint-1 back)
		// plus the chains' run-ahead.
		window = r.checkpoint + specLookahead + 4
	}
	r.store = newEpochStore(window)
	r.m = newModelPassOracle(name, staticCount, cfg, predName, r.oracle)

	for _, c := range r.chains {
		r.wg.Add(1)
		go r.runChain(c)
	}
	return r, false, nil
}

// runChain is one worker goroutine: round-robin its units through the
// epoch stream, always advancing the unit that is furthest behind, staying
// responsive to committer resyncs.
func (r *specRun) runChain(c *chain) {
	defer r.wg.Done()
	for {
		// Drain pending resyncs first so rewinds take effect promptly.
		for {
			select {
			case m := <-c.resync:
				c.apply(m)
				continue
			default:
			}
			break
		}
		u := c.nextUnit()
		if u == nil {
			return // every unit abandoned
		}
		events, st := r.store.get(u.next)
		switch st {
		case epochAborted, epochGone:
			return
		case epochEOF:
			// Out of work unless the committer rewinds a unit.
			select {
			case m := <-c.resync:
				c.apply(m)
			case <-r.done:
				return
			}
			continue
		}
		rec := u.processEpoch(r, u.next, events)
		u.next++
		for rec != nil {
			select {
			case u.records <- rec:
				rec = nil
			case m := <-c.resync:
				if m.unit == u.unit {
					rec = nil // superseded by the rewind
				}
				c.apply(m)
			case <-r.done:
				return
			}
		}
	}
}

// shutdown stops the chains and reclaims them. Idempotent.
func (r *specRun) shutdown() {
	r.closeOnce.Do(func() { close(r.done) })
	r.store.abort()
	r.wg.Wait()
}

// ensureLiveAt brings the unit's live replica to the state at the entry of
// epoch e: restore the last trusted checkpoint, then replay the committed
// epochs in between (at most checkpoint-1 of them — the replay bound).
func (r *specRun) ensureLiveAt(uc *unitCommit, e int) error {
	if uc.live == nil {
		u, err := r.buildUnit(uc.unit, nil)
		if err != nil {
			return err
		}
		uc.live = u
		uc.liveAt = -1
	}
	if uc.liveAt == e {
		return nil
	}
	if uc.snap != nil {
		if err := uc.live.ck.Restore(uc.snap); err != nil {
			return fmt.Errorf("%w: restoring unit %s checkpoint: %v", ErrSpeculation, uc.unit, err)
		}
	} else {
		uc.live.reset()
	}
	for k := uc.snapEpoch; k < e; k++ {
		ev, st := r.store.get(k)
		if st != epochReady {
			return fmt.Errorf("%w: replay epoch %d for unit %s unavailable", ErrSpeculation, k, uc.unit)
		}
		// These epochs were already committed, so their events passed
		// validation; replay them for their state effect only.
		for i := range ev {
			uc.live.observe(&ev[i], nil, nil)
		}
		r.stats.ReplayEpochs++
	}
	uc.liveAt = e
	return nil
}

// acquire obtains the verdict source for unit uc at epoch e: the chain's
// record if its entry digest matches the committed state, otherwise the
// live replica rebuilt from the last trusted checkpoint.
func (r *specRun) acquire(uc *unitCommit, e int) error {
	if uc.liveMode {
		uc.rec = nil
		return r.ensureLiveAt(uc, e)
	}
	rec, err := uc.fetch(r.done)
	if err != nil {
		return err
	}
	if rec.entryDig != uc.dig {
		r.stats.Diverged++
		uc.misses++
		uc.rec = nil
		return r.ensureLiveAt(uc, e)
	}
	uc.misses = 0
	uc.rec = rec
	uc.curA = bitCursor{s: &rec.a}
	uc.curB = bitCursor{s: &rec.b}
	return nil
}

// armOracle points each oracle lane — one per category — at its verdict
// source for the epoch being committed.
func (r *specRun) armOracle() {
	o := r.oracle
	in := r.byKind[unitInput]
	if in.rec != nil {
		o.inC, o.inP = &in.curA, nil
	} else {
		o.inC, o.inP = nil, in.live.value
	}
	switch out := r.byKind[unitOutput]; {
	case r.shared && in.rec != nil:
		o.outC, o.outP = &in.curB, nil
	case r.shared:
		o.outC, o.outP = nil, in.live.value
	case out.rec != nil:
		o.outC, o.outP = &out.curA, nil
	default:
		o.outC, o.outP = nil, out.live.value
	}
	br := r.byKind[unitBranch]
	if br.rec != nil {
		o.brC, o.brG = &br.curA, nil
	} else {
		o.brC, o.brG = nil, br.live.gsh
	}
	ad := r.byKind[unitAddr]
	if ad.rec != nil {
		o.adC, o.adS = &ad.curA, nil
	} else {
		o.adC, o.adS = nil, ad.live.str
	}
}

// settle closes epoch e: validate that adopted records were consumed
// exactly, adopt exit digests and checkpoints, resync or abandon diverged
// units, and release epochs no replay can need anymore.
func (r *specRun) settle(e int) error {
	minKeep := e + 1
	for _, uc := range r.commitUnits {
		switch {
		case uc.liveMode:
			uc.liveAt = e + 1
		case uc.rec != nil:
			rec := uc.rec
			uc.rec = nil
			if rec.err != nil || !uc.curA.drained() || !uc.curB.drained() {
				return fmt.Errorf("%w: unit %s outcome stream out of step at epoch %d",
					ErrSpeculation, uc.unit, e)
			}
			uc.dig = rec.exitDig
			if rec.snap != nil {
				uc.snap, uc.snapEpoch = rec.snap, e+1
			}
		default:
			// Served live after a divergence.
			uc.liveAt = e + 1
			r.stats.Replayed++
			if uc.misses >= maxSpecMisses {
				uc.liveMode = true
				r.stats.Abandoned++
				uc.ch.resync <- resyncMsg{unit: uc.unit}
			} else {
				snap := uc.live.ck.Snapshot()
				uc.snap, uc.snapEpoch = snap, e+1
				uc.dig = snap.Digest()
				uc.gen++
				uc.expect = e + 1
				r.stats.Resyncs++
				uc.ch.resync <- resyncMsg{unit: uc.unit, gen: uc.gen, epoch: e + 1, snap: snap}
			}
		}
		keep := uc.snapEpoch
		if uc.liveMode {
			keep = e + 1
		}
		if keep < minKeep {
			minKeep = keep
		}
	}
	r.store.release(minKeep)
	return nil
}

// commit runs the sequential classification sweep over the epoch stream,
// consuming the chains' recorded verdicts.
func (r *specRun) commit() (*Result, error) {
	for e := 0; ; e++ {
		events, st := r.store.get(e)
		if st == epochEOF {
			break
		}
		if st != epochReady {
			return nil, fmt.Errorf("%w: epoch %d unavailable to committer", ErrSpeculation, e)
		}
		r.stats.Epochs++
		for _, uc := range r.commitUnits {
			if err := r.acquire(uc, e); err != nil {
				return nil, err
			}
		}
		r.armOracle()
		for i := range events {
			if err := r.m.Observe(&events[i]); err != nil {
				return nil, &specEventError{idx: r.globalIdx + uint64(i), err: err}
			}
		}
		r.globalIdx += uint64(len(events))
		if err := r.settle(e); err != nil {
			return nil, err
		}
	}
	return r.m.Finish()
}

// RunSpeculative executes the model over an in-memory trace with
// epoch-speculative predictor chains. The Result is byte-identical to
// RunWith's for every configuration — speculation is validated against
// state digests and re-executed on divergence, never trusted. Predictors
// without checkpoint support (predictor.Checkpointer) fall back to the
// sequential pass, reported via SpecStats.Fallback.
func RunSpeculative(t *trace.Trace, cfg Config, spec SpecConfig) (*Result, error) {
	if t == nil {
		return nil, fmt.Errorf("%w: nil trace", ErrConfig)
	}
	r, fallback, err := newSpecRun(t.Name, t.StaticCount, cfg, spec, false)
	if err != nil {
		return nil, err
	}
	if fallback {
		res, err := RunWith(t, cfg)
		if err == nil && spec.Stats != nil {
			*spec.Stats = SpecStats{Fallback: true}
		}
		return res, err
	}
	defer r.shutdown()

	n := len(t.Events)
	epochs := spec.Epochs
	if epochs <= 0 {
		epochs = 4 * len(r.chains)
	}
	epochs = max(1, min(epochs, max(n, 1)))
	per := (n + epochs - 1) / epochs
	for lo := 0; lo < n; lo += per {
		r.store.put(t.Events[lo:min(lo+per, n)])
	}
	r.store.finish()

	res, err := r.commit()
	if err != nil {
		var ee *specEventError
		if errors.As(err, &ee) {
			err = fmt.Errorf("event %d: %w", ee.idx, ee.err)
		}
		return nil, err
	}
	if spec.Stats != nil {
		*spec.Stats = r.stats
	}
	return res, nil
}
