package obs

// The alert plane: structured, deduplicated notifications derived from
// SLO verdicts. An AlertTracker watches per-tenant verdicts at every
// evaluation tick and fires a breach alert when an objective's burn
// crosses 1, a recovery alert when it returns under budget, and a
// quarantine alert when the fleet freezes a tenant out. Alerts are
// evaluated on the simulation clock and sequenced deterministically, so
// two runs of the same seed produce byte-identical alert logs; only
// delivery (sinks, retries) touches the outside world.

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// AlertKind is the typed vocabulary of the alert plane.
type AlertKind string

const (
	// AlertSLOBreach — an objective's error-budget burn crossed 1.
	AlertSLOBreach AlertKind = "slo-breach"
	// AlertSLORecovery — a breached objective returned under budget.
	AlertSLORecovery AlertKind = "slo-recovery"
	// AlertQuarantine — the fleet quarantined a tenant (panic or epoch
	// deadline exceeded) and froze it out of subsequent epochs.
	AlertQuarantine AlertKind = "tenant-quarantined"
)

// Alert is one structured alert event. Time always comes from the
// simulation clock; Seq orders alerts totally within one tracker.
type Alert struct {
	Seq       uint64    `json:"seq"`
	Time      time.Time `json:"time"`
	Kind      AlertKind `json:"kind"`
	Tenant    string    `json:"tenant"`
	Epoch     int       `json:"epoch"`
	Objective string    `json:"objective,omitempty"`
	Burn      float64   `json:"burn,omitempty"`
	Value     float64   `json:"value,omitempty"`
	Target    float64   `json:"target,omitempty"`
	Detail    string    `json:"detail,omitempty"`
}

// JSON renders the alert as one deterministic JSON line (fixed field
// order, shortest round-trip floats).
func (a Alert) JSON() string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"seq":%d,"time":%q,"kind":%q,"tenant":%q,"epoch":%d`,
		a.Seq, a.Time.Format(time.RFC3339Nano), a.Kind, a.Tenant, a.Epoch)
	if a.Objective != "" {
		fmt.Fprintf(&b, `,"objective":%q`, a.Objective)
	}
	if a.Burn != 0 {
		fmt.Fprintf(&b, `,"burn":%s`, strconv.FormatFloat(a.Burn, 'g', -1, 64))
	}
	if a.Value != 0 {
		fmt.Fprintf(&b, `,"value":%s`, strconv.FormatFloat(a.Value, 'g', -1, 64))
	}
	if a.Target != 0 {
		fmt.Fprintf(&b, `,"target":%s`, strconv.FormatFloat(a.Target, 'g', -1, 64))
	}
	if a.Detail != "" {
		fmt.Fprintf(&b, `,"detail":%q`, a.Detail)
	}
	b.WriteByte('}')
	return b.String()
}

// String renders a compact single-line form for logs.
func (a Alert) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s #%d %s tenant=%s epoch=%d",
		a.Time.Format(time.RFC3339), a.Seq, a.Kind, a.Tenant, a.Epoch)
	if a.Objective != "" {
		fmt.Fprintf(&b, " objective=%s burn=%.2f", a.Objective, a.Burn)
	}
	if a.Detail != "" {
		fmt.Fprintf(&b, " detail=%q", a.Detail)
	}
	return b.String()
}

// AlertSink delivers alerts to the outside world. Unlike the trace
// bus's Sink, Send returns an error so callers can retry: alerts are
// the one obs output whose loss an operator would care about.
type AlertSink interface {
	Send(Alert) error
}

// MemoryAlertSink captures alerts in memory, for tests and the live
// /fleet/slo payload.
type MemoryAlertSink struct {
	mu     sync.Mutex
	alerts []Alert
}

// Send implements AlertSink; it never fails.
func (m *MemoryAlertSink) Send(a Alert) error {
	m.mu.Lock()
	m.alerts = append(m.alerts, a)
	m.mu.Unlock()
	return nil
}

// Alerts returns a copy of everything captured so far.
func (m *MemoryAlertSink) Alerts() []Alert {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Alert(nil), m.alerts...)
}

// Count returns how many alerts of the kind were captured.
func (m *MemoryAlertSink) Count(kind AlertKind) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, a := range m.alerts {
		if a.Kind == kind {
			n++
		}
	}
	return n
}

// JSONLAlertSink writes one deterministic JSON line per alert.
type JSONLAlertSink struct {
	mu sync.Mutex
	w  io.Writer
}

// NewJSONLAlertSink wraps w.
func NewJSONLAlertSink(w io.Writer) *JSONLAlertSink { return &JSONLAlertSink{w: w} }

// Send implements AlertSink, returning the write error so a RetrySink
// (or the caller) can retry the line.
func (j *JSONLAlertSink) Send(a Alert) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	_, err := io.WriteString(j.w, a.JSON()+"\n")
	return err
}

// RetryAlertSink wraps a sink with bounded retry and exponential
// backoff. The Sleep hook is injectable so simulated/deterministic
// callers retry without real waiting; nil means no sleep at all.
type RetryAlertSink struct {
	// Sink is the delegate that actually delivers.
	Sink AlertSink
	// Attempts is the total number of tries per alert (default 3).
	Attempts int
	// Backoff is the wait before the first retry; it doubles each
	// further retry (default 10ms).
	Backoff time.Duration
	// Sleep waits between attempts. nil skips waiting entirely, which
	// keeps deterministic harnesses free of wall-clock time.
	Sleep func(time.Duration)
}

// Send tries the delegate up to Attempts times, backing off between
// tries, and returns the last error if every attempt failed.
func (r *RetryAlertSink) Send(a Alert) error {
	attempts := r.Attempts
	if attempts <= 0 {
		attempts = 3
	}
	backoff := r.Backoff
	if backoff <= 0 {
		backoff = 10 * time.Millisecond
	}
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 && r.Sleep != nil {
			r.Sleep(backoff)
			backoff *= 2
		}
		if err = r.Sink.Send(a); err == nil {
			return nil
		}
	}
	return fmt.Errorf("obs: alert sink failed after %d attempts: %w", attempts, err)
}

// AlertTracker turns per-tenant SLO verdicts into deduplicated alerts:
// a breach fires only when a (tenant, objective) pair transitions from
// under budget to over, and a recovery only on the way back. The
// tracker is not self-locking — the fleet drives it sequentially on
// epoch barriers under the observability plane's lock.
type AlertTracker struct {
	seq    uint64
	firing map[string]bool
	log    []Alert
}

// NewAlertTracker returns an empty tracker.
func NewAlertTracker() *AlertTracker {
	return &AlertTracker{firing: make(map[string]bool)}
}

// RestoreAlertTracker rebuilds a tracker from checkpointed state: the
// sequence counter, the firing pairs as FiringKeys renders them, and
// the log.
func RestoreAlertTracker(seq uint64, firing []string, log []Alert) *AlertTracker {
	tr := &AlertTracker{seq: seq, firing: make(map[string]bool, len(firing)),
		log: append([]Alert(nil), log...)}
	for _, k := range firing {
		tr.firing[k] = true
	}
	return tr
}

func firingKey(tenant, objective string) string { return tenant + "/" + objective }

// Observe evaluates one tenant's verdicts at one tick and returns the
// alerts that newly fired (appended to the tracker's log as well).
func (tr *AlertTracker) Observe(t time.Time, epoch int, tenant string, verdicts []Verdict) []Alert {
	var fired []Alert
	for _, v := range verdicts {
		key := firingKey(tenant, v.Objective)
		switch {
		case !v.Pass && !tr.firing[key]:
			tr.firing[key] = true
			fired = append(fired, tr.emit(Alert{
				Time: t, Kind: AlertSLOBreach, Tenant: tenant, Epoch: epoch,
				Objective: v.Objective, Burn: v.Burn, Value: v.Value, Target: v.Target,
				Detail: v.Detail,
			}))
		case v.Pass && tr.firing[key]:
			delete(tr.firing, key)
			fired = append(fired, tr.emit(Alert{
				Time: t, Kind: AlertSLORecovery, Tenant: tenant, Epoch: epoch,
				Objective: v.Objective, Burn: v.Burn, Value: v.Value, Target: v.Target,
				Detail: v.Detail,
			}))
		}
	}
	return fired
}

// Quarantine records a tenant-quarantined alert.
func (tr *AlertTracker) Quarantine(t time.Time, epoch int, tenant, reason string) Alert {
	return tr.emit(Alert{
		Time: t, Kind: AlertQuarantine, Tenant: tenant, Epoch: epoch, Detail: reason,
	})
}

func (tr *AlertTracker) emit(a Alert) Alert {
	tr.seq++
	a.Seq = tr.seq
	tr.log = append(tr.log, a)
	return a
}

// Seq returns the number of alerts emitted so far.
func (tr *AlertTracker) Seq() uint64 { return tr.seq }

// Log returns a copy of every alert emitted, in sequence order.
func (tr *AlertTracker) Log() []Alert { return append([]Alert(nil), tr.log...) }

// FiringKeys returns the currently-breached (tenant, objective) pairs
// as sorted "tenant/objective" strings — the checkpointed dedup state.
func (tr *AlertTracker) FiringKeys() []string {
	keys := make([]string, 0, len(tr.firing))
	for k := range tr.firing {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
