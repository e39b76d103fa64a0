package obs

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(body)
}

// Serve mounts the profile index next to the metrics route only when asked;
// without it the debug surface must not exist.
func TestServePprofOptIn(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "help").Inc()

	plain, err := Serve("127.0.0.1:0", r, false)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if code, _ := get(t, "http://"+plain.Addr().String()+"/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("pprof reachable with pprof off: status %d", code)
	}

	prof, err := Serve("127.0.0.1:0", r, true)
	if err != nil {
		t.Fatal(err)
	}
	defer prof.Close()
	base := "http://" + prof.Addr().String()
	if code, body := get(t, base+"/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index broken: status %d body %q", code, body)
	}
	if code, body := get(t, base+"/metrics"); code != http.StatusOK || !strings.Contains(body, "c 1") {
		t.Fatalf("metrics route lost with pprof on: status %d body %q", code, body)
	}
}
