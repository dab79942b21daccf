package live

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"rocc/internal/dist"
)

// startTestServer binds an ephemeral port and registers cleanup.
func startTestServer(t *testing.T, exp *Exporter) (*Server, string) {
	t.Helper()
	s := NewServer(exp)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, "http://" + addr
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func TestServerEndpoints(t *testing.T) {
	m := dist.NewMonitor()
	m.Dispatched.Add(7)
	exp := NewExporter()
	exp.SetSweep(m.Counters())
	s, base := startTestServer(t, exp)

	if s.Addr() == "" || !strings.Contains(s.Addr(), ":") {
		t.Fatalf("Addr() = %q, want a bound host:port", s.Addr())
	}

	code, body := get(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d", code)
	}
	var health struct {
		Status    string  `json:"status"`
		PID       int     `json:"pid"`
		UptimeSec float64 `json:"uptime_sec"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("/healthz not JSON: %v\n%s", err, body)
	}
	if health.Status != "ok" || health.PID == 0 || health.UptimeSec < 0 {
		t.Fatalf("/healthz = %+v", health)
	}

	code, body = get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	n, err := ParseExposition(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics not valid exposition: %v\n%s", err, body)
	}
	if n == 0 || !strings.Contains(body, "rocc_sweep_dispatched_total 7") {
		t.Fatalf("/metrics missing sweep counters:\n%s", body)
	}

	// /progress with no source: 503 with a JSON error, not a panic.
	code, body = get(t, base+"/progress")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "no progress source") {
		t.Fatalf("/progress without source = %d %q", code, body)
	}

	s.SetProgress(func() any {
		return map[string]any{"shards": 10, "done": 4}
	})
	code, body = get(t, base+"/progress")
	if code != http.StatusOK {
		t.Fatalf("/progress status %d", code)
	}
	var prog map[string]any
	if err := json.Unmarshal([]byte(body), &prog); err != nil {
		t.Fatalf("/progress not JSON: %v", err)
	}
	if prog["done"] != float64(4) {
		t.Fatalf("/progress = %v", prog)
	}

	// pprof must be mounted.
	code, body = get(t, base+"/debug/pprof/cmdline")
	if code != http.StatusOK || body == "" {
		t.Fatalf("/debug/pprof/cmdline = %d %q", code, body)
	}
}

// ":0" must bind an ephemeral port and report the real address; Close
// must be idempotent and safe before Start.
func TestServerEphemeralPortAndClose(t *testing.T) {
	s := NewServer(nil)
	if err := s.Close(); err != nil {
		t.Fatalf("Close before Start: %v", err)
	}
	addr, err := s.Start(":0")
	if err != nil {
		t.Fatal(err)
	}
	if strings.HasSuffix(addr, ":0") {
		t.Fatalf("Start(:0) reported unbound address %q", addr)
	}
	code, _ := get(t, fmt.Sprintf("http://127.0.0.1:%s/healthz", addr[strings.LastIndex(addr, ":")+1:]))
	if code != http.StatusOK {
		t.Fatalf("healthz on ephemeral port: %d", code)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// A garbage address must fail Start with an error, not panic or hang.
func TestServerStartRejectsBadAddress(t *testing.T) {
	s := NewServer(nil)
	if _, err := s.Start("not-an-address:-1"); err == nil {
		s.Close()
		t.Fatal("Start accepted a garbage address")
	}
}
