package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

func probeStatus(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("probe %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// TestHealthTransitions walks the serving lifecycle the daemon drives:
// starting (live, not ready) → serving (ready) → draining (not ready)
// → fenced (not live).
func TestHealthTransitions(t *testing.T) {
	h := NewHealth()
	mux := http.NewServeMux()
	h.Handle(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	base := srv.URL

	// Starting: live but not ready (snapshot load + WAL replay pending).
	if code, _ := probeStatus(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz while starting = %d, want 200", code)
	}
	if code, body := probeStatus(t, base+"/readyz"); code != http.StatusServiceUnavailable || body != "starting\n" {
		t.Fatalf("readyz while starting = %d %q, want 503 starting", code, body)
	}

	// Replay complete: ready flips true.
	h.SetReady(true, "")
	if code, body := probeStatus(t, base+"/readyz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("readyz while serving = %d %q, want 200 ok", code, body)
	}

	// Drain begins: ready flips false again, liveness stays.
	h.SetReady(false, "draining")
	if code, body := probeStatus(t, base+"/readyz"); code != http.StatusServiceUnavailable || body != "draining\n" {
		t.Fatalf("readyz while draining = %d %q, want 503 draining", code, body)
	}
	if code, _ := probeStatus(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200 (drain is not death)", code)
	}

	// Fenced: both probes fail.
	h.Down("lease lost")
	if code, body := probeStatus(t, base+"/healthz"); code != http.StatusServiceUnavailable || body != "lease lost\n" {
		t.Fatalf("healthz after Down = %d %q, want 503", code, body)
	}
	if code, _ := probeStatus(t, base+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after Down = %d, want 503", code)
	}
}

// TestHealthNilAlwaysOK: the batch tools' debug server, which has no
// health state, answers both probes with 200 ok.
func TestHealthNilAlwaysOK(t *testing.T) {
	reg := NewRegistry()
	addr, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range []string{"/healthz", "/readyz"} {
		if code, body := probeStatus(t, fmt.Sprintf("http://%s%s", addr, ep)); code != http.StatusOK || body != "ok\n" {
			t.Fatalf("%s without health state = %d %q, want 200 ok", ep, code, body)
		}
	}
}
