package slap

import "fmt"

// Msg is one record traveling over a link. Kind is defined by the program
// (the simulator only moves records); A and B are the payload. Words is
// the record's width in machine words (0 means 1): Algorithm CC sends row
// pairs (2 words) during the union–find pass and (label, row) pairs
// during the label pass.
type Msg struct {
	Kind  uint8
	A, B  int32
	Words uint8
}

// words returns the width in words, at least 1.
func (m Msg) words() int64 {
	if m.Words == 0 {
		return 1
	}
	return int64(m.Words)
}

type timedMsg struct {
	msg       Msg
	ready     int64 // receiver may consume at clock ≥ ready
	consumeAt int64 // set on consumption; -1 while pending
}

// link is a one-directional FIFO between adjacent PEs.
type link struct {
	msgs     []timedMsg
	consumed int
}

// Direction orients a sweep.
type Direction int

// Sweep directions.
const (
	// LeftToRight runs PE 0 first; PE i receives from PE i-1.
	LeftToRight Direction = iota
	// RightToLeft runs PE n-1 first; PE i receives from PE i+1.
	RightToLeft
)

func (d Direction) String() string {
	if d == LeftToRight {
		return "left-to-right"
	}
	return "right-to-left"
}

// PE is one processing element's view during a phase: a virtual clock,
// an inbound link from the previous PE of the sweep and an outbound link
// toward the next. Programs call Tick for local work, Send/Recv/RecvWait
// for communication, and may install idle work with OnIdle. A PE is only
// valid for the duration of the phase body it is passed to.
type PE struct {
	// Index is the PE's position, 0..n-1 (the column it holds).
	Index int

	cost   CostModel
	clock  int64
	in     *link
	out    *link
	idleFn func()

	busy     int64
	idleTime int64
	sends    int64
	words    int64
	recvs    int64
	nilRecvs int64
	memWords int64
}

// Now returns the PE's clock within the current phase.
func (pe *PE) Now() int64 { return pe.clock }

// Tick charges units of local computation. (The panic is a constant so
// Tick stays within the inlining budget of the simulation's hot loops.)
func (pe *PE) Tick(units int64) {
	if units < 0 {
		panic("slap: negative tick")
	}
	d := units * pe.cost.LocalStep
	pe.clock += d
	pe.busy += d
}

// DeclareMemory records that the program uses the given number of words
// of PE-local memory; the machine tracks the maximum per PE so tests can
// check the architecture's Θ(n) memory budget.
func (pe *PE) DeclareMemory(words int64) {
	if words > pe.memWords {
		pe.memWords = words
	}
}

// HasIn reports whether the PE has an inbound link (false for the first
// PE of a sweep, which the paper's pseudocode special-cases as "if i = 0
// then incoming ← eos").
func (pe *PE) HasIn() bool { return pe.in != nil }

// HasOut reports whether the PE has an outbound link (false for the last
// PE of a sweep).
func (pe *PE) HasOut() bool { return pe.out != nil }

// Send transmits m to the next PE of the sweep. Transmission occupies the
// sender for Words×WordSteps, and the record becomes available to the
// receiver when the last word has crossed.
func (pe *PE) Send(m Msg) {
	if pe.out == nil {
		pe.sendNoLink()
	}
	w := m.words()
	d := w * pe.cost.WordSteps
	pe.clock += d
	pe.busy += d
	pe.sends++
	pe.words += w
	pe.out.msgs = append(pe.out.msgs, timedMsg{msg: m, ready: pe.clock, consumeAt: -1})
}

func (pe *PE) sendNoLink() {
	panic(fmt.Sprintf("slap: PE %d has no outbound link", pe.Index))
}

// Recv performs one dequeue attempt (one QueueOp charge): it returns the
// earliest unconsumed inbound record whose ready time has passed, or
// ok=false when the queue is empty at this instant — the paper's
// "Dequeue returns nil if empty queue".
func (pe *PE) Recv() (m Msg, ok bool) {
	pe.clock += pe.cost.QueueOp
	pe.busy += pe.cost.QueueOp
	if pe.in == nil || pe.in.consumed == len(pe.in.msgs) {
		pe.nilRecvs++
		return Msg{}, false
	}
	next := &pe.in.msgs[pe.in.consumed]
	if next.ready > pe.clock {
		pe.nilRecvs++
		return Msg{}, false
	}
	pe.in.consumed++
	next.consumeAt = pe.clock
	pe.recvs++
	return next.msg, true
}

// RecvWait polls until an inbound record is available and consumes it.
// Polling costs one QueueOp per cycle; cycles with nothing to consume are
// either spent on the installed idle function (one call per idle cycle)
// or fast-forwarded, with identical resulting clocks. It returns ok=false
// only when the sender has terminated without ever sending another
// record — for Algorithm CC, which closes every stream with an eos
// record, that indicates a protocol violation.
func (pe *PE) RecvWait() (m Msg, ok bool) {
	if pe.in == nil || pe.in.consumed == len(pe.in.msgs) {
		return Msg{}, false
	}
	next := &pe.in.msgs[pe.in.consumed]
	// Polls complete at clock+Q, clock+2Q, …; the successful one is the
	// first completing at or after next.ready. (The unit-cost model is
	// the overwhelmingly common case; skip its division.)
	polls := int64(1)
	if diff := next.ready - pe.clock; diff > pe.cost.QueueOp {
		if pe.cost.QueueOp == 1 {
			polls = diff
		} else {
			polls = (diff + pe.cost.QueueOp - 1) / pe.cost.QueueOp
		}
	}
	if pe.idleFn != nil {
		for i := int64(1); i < polls; i++ {
			pe.clock += pe.cost.QueueOp
			pe.idleTime += pe.cost.QueueOp
			pe.nilRecvs++
			pe.idleFn()
		}
	} else if polls > 1 {
		idle := (polls - 1) * pe.cost.QueueOp
		pe.clock += idle
		pe.idleTime += idle
		pe.nilRecvs += polls - 1
	}
	pe.clock += pe.cost.QueueOp
	pe.busy += pe.cost.QueueOp
	pe.in.consumed++
	next.consumeAt = pe.clock
	pe.recvs++
	return next.msg, true
}

// OnIdle installs fn as the PE's idle-cycle work (§3: path compression
// while waiting on the left neighbor). fn must perform O(1) work per
// call; it runs once per otherwise-idle cycle inside RecvWait.
func (pe *PE) OnIdle(fn func()) { pe.idleFn = fn }

// PhaseMetrics describes one executed phase.
type PhaseMetrics struct {
	Name     string
	Makespan int64 // max PE completion time
	Busy     int64 // Σ busy time over PEs
	Idle     int64 // Σ idle time over PEs
	Sends    int64 // records transmitted
	Words    int64 // words transmitted
	NilRecvs int64 // empty dequeue attempts
	MaxQueue int   // peak backlog (sent, not yet consumed) on any link
	// PerPE holds each PE's completion time, populated only when the
	// machine's profile mode is on: the systolic wavefront of a sweep is
	// directly visible as the (roughly linear) growth across the array.
	PerPE []int64
}

// Metrics aggregates a machine run.
type Metrics struct {
	N        int
	Phases   []PhaseMetrics
	Time     int64 // Σ phase makespans (pipelined composition: critical path)
	Sends    int64
	Words    int64
	MaxQueue int
	PEMemory int64 // max declared per-PE memory in words

	// Pipelined-composition state (see MergePipelined in compose.go): the
	// completion time of the last merged strip's input stage, and the
	// start/completion times of its compute stage. Zero outside pipelined
	// composition.
	pipeInputEnd   int64
	pipeComputeBeg int64
	pipeComputeEnd int64
}

// add folds a phase into the totals.
func (m *Metrics) add(p PhaseMetrics) {
	m.Phases = append(m.Phases, p)
	m.Time += p.Makespan
	m.Sends += p.Sends
	m.Words += p.Words
	if p.MaxQueue > m.MaxQueue {
		m.MaxQueue = p.MaxQueue
	}
}

// Phase returns the metrics of the named phase and whether it exists.
func (m *Metrics) Phase(name string) (PhaseMetrics, bool) {
	for _, p := range m.Phases {
		if p.Name == name {
			return p, true
		}
	}
	return PhaseMetrics{}, false
}

// Machine is an n-PE SLAP. Programs run against it phase by phase; it
// accumulates Metrics. A Machine can be reused across runs with Reset,
// in which case its internal link and PE scratch memory is recycled —
// the hot path of a reused machine allocates nothing.
type Machine struct {
	n       int
	cost    CostModel
	metrics Metrics
	profile bool
	// fuseOff makes RunFused run its subphases as separate per-phase
	// walks (the reference executor; see fused.go).
	fuseOff bool

	// Arenas reused across phases and runs.
	scratchPE PE
	freeLinks []*link
	fusedSubs []fusedSub
}

// EnableProfile turns on per-PE completion-time recording (PhaseMetrics.
// PerPE) for subsequently executed phases.
func (mc *Machine) EnableProfile() { mc.profile = true }

// NewMachine returns an n-PE machine under the given cost model.
func NewMachine(n int, cost CostModel) *Machine {
	mc := &Machine{}
	mc.Reset(n, cost)
	return mc
}

// Reset re-initializes the machine to n PEs under the given cost model,
// clearing accumulated metrics and mode flags while keeping internal
// buffers for reuse. A reset machine is observationally identical to a
// fresh NewMachine(n, cost).
func (mc *Machine) Reset(n int, cost CostModel) {
	if n < 0 {
		panic(fmt.Sprintf("slap: negative machine size %d", n))
	}
	if err := cost.Validate(); err != nil {
		panic(err)
	}
	mc.n = n
	mc.cost = cost
	mc.profile = false
	mc.fuseOff = false
	mc.metrics = Metrics{N: n, Phases: mc.metrics.Phases[:0]}
}

// N returns the number of PEs.
func (mc *Machine) N() int { return mc.n }

// Cost returns the machine's cost model.
func (mc *Machine) Cost() CostModel { return mc.cost }

// PhaseCount returns how many phases the machine has executed since the
// last Reset.
func (mc *Machine) PhaseCount() int { return len(mc.metrics.Phases) }

// PhaseMetricsAt returns the i-th executed phase by value, with any
// per-PE profile dropped — the allocation-free read for composition
// code that folds a phase and moves on. Metrics() remains the safe
// independent full copy.
func (mc *Machine) PhaseMetricsAt(i int) PhaseMetrics {
	p := mc.metrics.Phases[i]
	p.PerPE = nil
	return p
}

// PEMemoryWords returns the maximum per-PE memory declared so far.
func (mc *Machine) PEMemoryWords() int64 { return mc.metrics.PEMemory }

// Metrics returns the metrics accumulated so far. The returned value is
// an independent copy: it stays valid after the machine is reset.
func (mc *Machine) Metrics() Metrics {
	m := mc.metrics
	m.Phases = append([]PhaseMetrics(nil), mc.metrics.Phases...)
	for i := range m.Phases {
		if p := m.Phases[i].PerPE; p != nil {
			m.Phases[i].PerPE = append([]int64(nil), p...)
		}
	}
	return m
}

// acquireLink returns an empty link, recycling a released one if any.
func (mc *Machine) acquireLink() *link {
	if k := len(mc.freeLinks); k > 0 {
		l := mc.freeLinks[k-1]
		mc.freeLinks = mc.freeLinks[:k-1]
		l.msgs = l.msgs[:0]
		l.consumed = 0
		return l
	}
	return &link{}
}

// releaseLink returns a fully folded link to the arena.
func (mc *Machine) releaseLink(l *link) { mc.freeLinks = append(mc.freeLinks, l) }

// ChargeGlobal records a phase that occupies every PE for the given
// number of steps — used for the image input phase (one row per step,
// Figure 1) and by coarse-grained baselines.
func (mc *Machine) ChargeGlobal(name string, steps int64) {
	if steps < 0 {
		panic(fmt.Sprintf("slap: negative global charge %d", steps))
	}
	mc.metrics.add(PhaseMetrics{
		Name:     name,
		Makespan: steps * mc.cost.LocalStep,
		Busy:     steps * mc.cost.LocalStep * int64(mc.n),
	})
}

// RunLocal executes body once per PE with no links: a purely local phase.
// The phase makespan is the maximum PE time.
func (mc *Machine) RunLocal(name string, body func(pe *PE)) int64 {
	var phase PhaseMetrics
	phase.Name = name
	pe := &mc.scratchPE
	for i := 0; i < mc.n; i++ {
		*pe = PE{Index: i, cost: mc.cost}
		body(pe)
		mc.foldPE(&phase, pe)
	}
	mc.metrics.add(phase)
	return phase.Makespan
}

// RunSweep executes body once per PE in the order of dir, wiring each PE's
// inbound link to its predecessor's outbound link. Communication must be
// unidirectional (enforced by construction: there are no backward links).
// The phase makespan is the maximum PE completion time.
//
// The sweep runs in topological order. At most two link buffers are ever
// live — the one the current PE consumes and the one it produces; a link
// is folded into the queue statistics and recycled as soon as its
// consumer finishes, so a sweep over a reused machine allocates nothing.
func (mc *Machine) RunSweep(name string, dir Direction, body func(pe *PE)) int64 {
	var phase PhaseMetrics
	phase.Name = name
	var in, out *link
	pe := &mc.scratchPE
	for pos := 0; pos < mc.n; pos++ {
		idx := pos
		if dir == RightToLeft {
			idx = mc.n - 1 - pos
		}
		out = nil
		if pos < mc.n-1 {
			out = mc.acquireLink()
		}
		*pe = PE{Index: idx, cost: mc.cost, in: in, out: out}
		body(pe)
		mc.foldPE(&phase, pe)
		if in != nil {
			mc.foldLink(&phase, in)
		}
		in = out
	}
	mc.metrics.add(phase)
	return phase.Makespan
}

// foldPE accumulates one PE's counters into the phase and machine totals.
func (mc *Machine) foldPE(phase *PhaseMetrics, pe *PE) {
	if mc.profile {
		if phase.PerPE == nil {
			phase.PerPE = make([]int64, mc.n)
		}
		phase.PerPE[pe.Index] = pe.clock
	}
	if pe.clock > phase.Makespan {
		phase.Makespan = pe.clock
	}
	phase.Busy += pe.busy
	phase.Idle += pe.idleTime
	phase.Sends += pe.sends
	phase.Words += pe.words
	phase.NilRecvs += pe.nilRecvs
	if pe.memWords > mc.metrics.PEMemory {
		mc.metrics.PEMemory = pe.memWords
	}
}

// foldLink folds the queue peak of a link whose consumer has finished
// into the phase and returns the link to the arena.
func (mc *Machine) foldLink(phase *PhaseMetrics, l *link) {
	if q := peakBacklog(l); q > phase.MaxQueue {
		phase.MaxQueue = q
	}
	mc.releaseLink(l)
}

// peakBacklog computes the maximum number of records simultaneously
// in flight or queued on l. Ready times and consume times are both
// non-decreasing, so a two-pointer sweep suffices.
func peakBacklog(l *link) int {
	peak, cur := 0, 0
	j := 0
	for i := range l.msgs {
		// Message i enters the queue at its ready time; first retire
		// every message consumed strictly before that.
		for j < i {
			c := l.msgs[j].consumeAt
			if c >= 0 && c < l.msgs[i].ready {
				cur--
				j++
				continue
			}
			break
		}
		cur++
		if cur > peak {
			peak = cur
		}
	}
	return peak
}
