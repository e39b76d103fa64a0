package obs

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestRegistryPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sacsim_mem_ops_total", "Completed memory operations.")
	g0 := r.Gauge("sacsim_llc_hit_rate", "Windowed LLC hit rate.", L("chip", "0"), L("slice", "0"))
	g1 := r.Gauge("sacsim_llc_hit_rate", "Windowed LLC hit rate.", L("slice", "1"), L("chip", "0"))
	c.Add(41)
	c.Inc()
	g0.Set(0.75)
	g1.Set(0.5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP sacsim_mem_ops_total Completed memory operations.
# TYPE sacsim_mem_ops_total counter
sacsim_mem_ops_total 42
# HELP sacsim_llc_hit_rate Windowed LLC hit rate.
# TYPE sacsim_llc_hit_rate gauge
sacsim_llc_hit_rate{chip="0",slice="0"} 0.75
sacsim_llc_hit_rate{chip="0",slice="1"} 0.5
`
	if b.String() != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "")
	b := r.Counter("x_total", "")
	if a != b {
		t.Fatal("same name+labels must return the same metric")
	}
	// Same labels in a different order map to the same series.
	l1 := r.Gauge("y", "", L("a", "1"), L("b", "2"))
	l2 := r.Gauge("y", "", L("b", "2"), L("a", "1"))
	if l1 != l2 {
		t.Fatal("label order must not create a new series")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestRegistryValueEdgeCases(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("edge", "")
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{math.Inf(1), "edge +Inf\n"},
		{math.Inf(-1), "edge -Inf\n"},
		{1e21, "edge 1e+21\n"},
	} {
		g.Set(tc.v)
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(b.String(), tc.want) {
			t.Errorf("value %v: got %q, want suffix %q", tc.v, b.String(), tc.want)
		}
	}
}

func TestRegistryLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Gauge("esc", "", L("k", "a\"b\\c\nd")).Set(1)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `esc{k="a\"b\\c\nd"} 1`) {
		t.Errorf("unescaped label output: %q", b.String())
	}
}

// TestConcurrentScrape exercises the writer/scraper race the live /metrics
// endpoint creates (meaningful under -race).
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("hot", "")
	c := r.Counter("hot_total", "")
	h := http.NewServeMux()
	Mount(h, r, false)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
				g.Set(float64(i))
				c.Inc()
				// Concurrent registration of new series must be safe too.
				r.Gauge("hot_dyn", "", L("i", "x")).Set(float64(i))
			}
		}
	}()
	for i := 0; i < 200; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if rec.Code != 200 {
			t.Fatalf("scrape failed: %d", rec.Code)
		}
	}
	close(done)
	wg.Wait()
}
