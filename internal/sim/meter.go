package sim

// Meter accumulates per-protocol, per-round bandwidth. Protocols report the
// serialized size of every message they put on the (simulated) wire; the
// meter keeps a full per-round history so experiments can plot bandwidth
// over time (the paper's Figure 4).
type Meter struct {
	names   []string
	current []int64   // bytes this round, per protocol
	history [][]int64 // history[round][protocol]
	// arena is the backing pool history rows are sliced from, so EndRound
	// allocates one block per arenaRounds rounds instead of one row per
	// round. Exhausted blocks stay referenced by the rows cut from them.
	arena []int64
}

// arenaRounds is how many rounds of history one arena block holds.
const arenaRounds = 1024

// NewMeter returns an empty meter.
func NewMeter() *Meter {
	return &Meter{}
}

// AddProtocol registers a protocol name and returns its meter index.
// Indices match engine protocol registration order.
func (m *Meter) AddProtocol(name string) int {
	m.names = append(m.names, name)
	m.current = append(m.current, 0)
	return len(m.names) - 1
}

// Names returns the registered protocol names.
func (m *Meter) Names() []string {
	out := make([]string, len(m.names))
	copy(out, m.names)
	return out
}

// EndRound snapshots the current round's totals into the history and resets
// the per-round counters.
func (m *Meter) EndRound() {
	m.appendRow(m.current)
	for i := range m.current {
		m.current[i] = 0
	}
}

// appendRow copies one round's per-protocol totals into the history.
func (m *Meter) appendRow(row []int64) {
	np := len(row)
	if cap(m.arena)-len(m.arena) < np {
		m.arena = make([]int64, 0, max(arenaRounds*np, np))
	}
	start := len(m.arena)
	m.arena = append(m.arena, row...)
	m.history = append(m.history, m.arena[start:len(m.arena):len(m.arena)])
}

// Reserve pre-allocates history storage for at least n further rounds, so
// the next n EndRound calls are guaranteed allocation-free. Benchmarks and
// allocation-regression tests call it before their timed region.
func (m *Meter) Reserve(n int) {
	if need := len(m.history) + n; need > cap(m.history) {
		h := make([][]int64, len(m.history), need)
		copy(h, m.history)
		m.history = h
	}
	np := len(m.current)
	if need := np * n; cap(m.arena)-len(m.arena) < need {
		m.arena = make([]int64, 0, need)
	}
}

// Rounds returns the number of completed (snapshotted) rounds.
func (m *Meter) Rounds() int { return len(m.history) }

// RoundTotal returns the bytes protocol p spent in round r.
func (m *Meter) RoundTotal(r, p int) int64 { return m.history[r][p] }

// RoundSum returns the total bytes across the given protocols in round r.
// With no protocols listed it sums all of them.
func (m *Meter) RoundSum(r int, protocols ...int) int64 {
	if len(protocols) == 0 {
		var sum int64
		for _, b := range m.history[r] {
			sum += b
		}
		return sum
	}
	var sum int64
	for _, p := range protocols {
		sum += m.history[r][p]
	}
	return sum
}
