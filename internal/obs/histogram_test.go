package obs

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestHistogramObserveAndExport(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("job_latency_seconds", "Job latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum(); got != 102.65 {
		t.Fatalf("sum = %v, want 102.65", got)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE job_latency_seconds histogram",
		`job_latency_seconds_bucket{le="0.1"} 2`, // 0.05 and the boundary 0.1
		`job_latency_seconds_bucket{le="1"} 3`,
		`job_latency_seconds_bucket{le="10"} 4`,
		`job_latency_seconds_bucket{le="+Inf"} 5`,
		"job_latency_seconds_sum 102.65",
		"job_latency_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramLabelsMergeWithLE(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{1}, L("lane", "high"))
	h.Observe(0.5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if want := `lat_bucket{lane="high",le="1"} 1`; !strings.Contains(b.String(), want) {
		t.Fatalf("missing %q in:\n%s", want, b.String())
	}
	if want := `lat_sum{lane="high"} 0.5`; !strings.Contains(b.String(), want) {
		t.Fatalf("missing %q in:\n%s", want, b.String())
	}
}

func TestHistogramSameSeriesReturned(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("lat", "", []float64{1})
	b := r.Histogram("lat", "", []float64{1})
	if a != b {
		t.Fatal("re-registration returned a different histogram")
	}
}

func TestHistogramMisuse(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	mustPanic(t, "counter reregistered as histogram", func() { r.Histogram("x", "", []float64{1}) })
	r.Histogram("h", "", []float64{1, 2})
	mustPanic(t, "histogram rebucketed", func() { r.Histogram("h", "", []float64{1, 3}) })
	mustPanic(t, "histogram reregistered as gauge", func() { r.Gauge("h", "") })
	mustPanic(t, "unsorted buckets", func() { r.Histogram("u", "", []float64{2, 1}) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

func TestServeHasTimeoutsAndCloses(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "help").Inc()
	ms, err := Serve("127.0.0.1:0", r, false)
	if err != nil {
		t.Fatal(err)
	}
	if ms.srv.ReadHeaderTimeout == 0 || ms.srv.IdleTimeout == 0 {
		t.Error("server is missing header/idle timeouts (slowloris-prone)")
	}
	resp, err := http.Get("http://" + ms.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "c 1") {
		t.Fatalf("scrape missing counter: %s", body)
	}
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + ms.Addr().String() + "/metrics"); err == nil {
		t.Fatal("listener still accepting after Close")
	}
}
