// Package obs is the simulator's observability layer: a metrics registry
// sampled on a cycle window and exported as Prometheus text, plus
// an event tracer emitting Chrome trace_event JSON that loads directly in
// Perfetto. The layer is strictly optional — a simulation with no Observer
// attached takes a single nil-pointer check per guarded site and allocates
// nothing — and safe for concurrent scraping: metric values are atomics, so
// an HTTP exporter can read a registry while the (single-threaded) simulation
// writes it.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind distinguishes the metric types the registry supports.
type Kind uint8

const (
	// KindCounter is a monotonically non-decreasing value.
	KindCounter Kind = iota
	// KindGauge is a point-in-time value that can move both ways.
	KindGauge
	// KindHistogram is a bucketed distribution with a sum and a count.
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Label is one name="value" pair attached to a metric series.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Metric is one series of a metric family: a single float64 value updated
// with atomic operations, so the simulation can write it while an exporter
// reads it. The zero value is usable but unregistered; obtain metrics from a
// Registry so they appear in exports.
type Metric struct {
	bits atomic.Uint64
}

// Set stores v.
func (m *Metric) Set(v float64) { m.bits.Store(math.Float64bits(v)) }

// Add increments the value by v (CAS loop; the single-writer simulation
// never contends, and concurrent writers from sweep workers stay correct).
func (m *Metric) Add(v float64) {
	for {
		old := m.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if m.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (m *Metric) Inc() { m.Add(1) }

// Value returns the current value.
func (m *Metric) Value() float64 { return math.Float64frombits(m.bits.Load()) }

// Histogram is one bucketed distribution series. Observations land in the
// first bucket whose upper bound is >= the value (Prometheus "le"
// semantics); an implicit +Inf bucket catches the rest. All updates are
// atomic, so a scrape may run while observations arrive (bucket counts and
// the sum are each individually consistent; a scrape racing an Observe may
// see the count without the sum, which Prometheus tolerates).
type Histogram struct {
	bounds []float64 // sorted upper bounds, +Inf excluded
	counts []atomic.Uint64
	sum    Metric
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// cumulative returns the per-bucket cumulative counts (+Inf last).
func (h *Histogram) cumulative() []uint64 {
	out := make([]uint64, len(h.counts))
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
		out[i] = n
	}
	return out
}

// series is one labelled instance of a family.
type series struct {
	key    string // canonical {k="v",...} fragment, "" for the bare series
	metric Metric
	hist   *Histogram // non-nil only in histogram families
}

// family groups all series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   Kind
	bounds []float64 // histogram families only
	series []*series
	byKey  map[string]*series
}

// Registry holds named metric families. Registration takes a write lock;
// value updates are lock-free atomics; exports take a read lock (blocking
// only registration, never updates).
type Registry struct {
	mu       sync.RWMutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Counter registers (or finds) the counter series name{labels...} and
// returns its handle. Registering the same name with a different kind
// panics: that is a programming error, not input.
func (r *Registry) Counter(name, help string, labels ...Label) *Metric {
	return r.register(name, help, KindCounter, labels)
}

// Gauge registers (or finds) the gauge series name{labels...}.
func (r *Registry) Gauge(name, help string, labels ...Label) *Metric {
	return r.register(name, help, KindGauge, labels)
}

// Histogram registers (or finds) the histogram series name{labels...} with
// the given bucket upper bounds (strictly increasing; +Inf is implicit).
// Re-registering the same family with different buckets panics, like a kind
// mismatch: both are programming errors, not input.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if name == "" {
		panic("obs: empty metric name")
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %s buckets not strictly increasing", name))
		}
	}
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		f = &family{
			name: name, help: help, kind: KindHistogram,
			bounds: append([]float64(nil), buckets...),
			byKey:  make(map[string]*series),
		}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.kind != KindHistogram {
		panic(fmt.Sprintf("obs: metric %s reregistered as histogram (was %s)", name, f.kind))
	} else if !equalBounds(f.bounds, buckets) {
		panic(fmt.Sprintf("obs: histogram %s reregistered with different buckets", name))
	}
	if s, ok := f.byKey[key]; ok {
		return s.hist
	}
	s := &series{key: key, hist: newHistogram(f.bounds)}
	f.byKey[key] = s
	f.series = append(f.series, s)
	return s.hist
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (r *Registry) register(name, help string, kind Kind, labels []Label) *Metric {
	if name == "" {
		panic("obs: empty metric name")
	}
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, byKey: make(map[string]*series)}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s reregistered as %s (was %s)", name, kind, f.kind))
	}
	if s, ok := f.byKey[key]; ok {
		return &s.metric
	}
	s := &series{key: key}
	f.byKey[key] = s
	f.series = append(f.series, s)
	return &s.metric
}

// labelKey renders labels as a canonical, escaped {k="v",...} fragment.
// Labels are sorted by name so the same set always maps to the same series.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// formatValue renders a float the way Prometheus clients do.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4). Families appear in registration order, series in
// registration order within a family — both deterministic for a
// deterministic simulation.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var b strings.Builder
	for _, f := range r.families {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			if f.kind == KindHistogram {
				writeHistogram(&b, f, s)
				continue
			}
			b.WriteString(f.name)
			b.WriteString(s.key)
			b.WriteByte(' ')
			b.WriteString(formatValue(s.metric.Value()))
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram series in the Prometheus exposition
// format: cumulative _bucket series with an le label, then _sum and _count.
func writeHistogram(b *strings.Builder, f *family, s *series) {
	cum := s.hist.cumulative()
	for i, n := range cum {
		le := "+Inf"
		if i < len(f.bounds) {
			le = formatValue(f.bounds[i])
		}
		b.WriteString(f.name)
		b.WriteString("_bucket")
		b.WriteString(withLabel(s.key, "le", le))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatUint(n, 10))
		b.WriteByte('\n')
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", f.name, s.key, formatValue(s.hist.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", f.name, s.key, cum[len(cum)-1])
}

// withLabel appends one label to a canonical {..} fragment.
func withLabel(key, name, value string) string {
	extra := name + `="` + escapeLabel(value) + `"`
	if key == "" {
		return "{" + extra + "}"
	}
	return key[:len(key)-1] + "," + extra + "}"
}
