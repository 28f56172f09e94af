package ops

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"simba/internal/addr"
	"simba/internal/alert"
	"simba/internal/clock"
	"simba/internal/core"
	"simba/internal/dist"
	"simba/internal/hub"
	"simba/internal/hub/hubtest"
	"simba/internal/mab"
)

// newTestPlane builds a started 2-shard hub with a few tenants, its
// supervision plane, and the admin server.
func newTestPlane(t *testing.T) (*hub.Hub, *Server) {
	t.Helper()
	clk := clock.NewReal()
	h, err := hub.New(hub.Config{
		Clock:    clk,
		Channels: core.NewChannels().Register(addr.TypeSink, hubtest.NewSimSink(dist.NewRNG(5), 2, 0)),
		Shards:   2,
		WALPath:  filepath.Join(t.TempDir(), "hub.wal"),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		b, err := h.AddUser(fmt.Sprintf("user-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		b.Pipeline().Classifier.Accept(mab.SourceRule{Source: "portal", Extract: mab.ExtractNative})
	}
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Drain() })
	sup, err := h.Supervise(hub.SuperviseConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sup.Stop(); sup.Wait() })
	s, err := NewServer(Config{Hub: h, Supervisor: sup})
	if err != nil {
		t.Fatal(err)
	}
	return h, s
}

func do(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func TestNewServerRequiresHub(t *testing.T) {
	if _, err := NewServer(Config{}); err == nil {
		t.Fatal("nil hub accepted")
	}
}

func TestHealthzReportsRunningShards(t *testing.T) {
	_, s := newTestPlane(t)
	w := do(t, s, "GET", "/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /healthz = %d: %s", w.Code, w.Body)
	}
	var report HealthReport
	if err := json.Unmarshal(w.Body.Bytes(), &report); err != nil {
		t.Fatal(err)
	}
	if !report.OK || report.Users != 4 || len(report.Shards) != 2 {
		t.Fatalf("report = %+v", report)
	}
	for _, sh := range report.Shards {
		if sh.State != hub.ShardRunning || sh.Generation != 1 {
			t.Fatalf("shard %d = %+v", sh.Shard, sh)
		}
	}
	// One check table: one row per shard, then wal-backlog, outbox-age
	// and pool-poison.
	if len(report.Invariants) != 2+3 || report.Invariants[0].Name != "shard-0" {
		t.Fatalf("supervision counters missing: %+v", report.Invariants)
	}
	for _, gone := range []string{`"watchdog"`, `"probe_latency_us"`} {
		if strings.Contains(w.Body.String(), gone) {
			t.Fatalf("/healthz still carries a %s section: %s", gone, w.Body)
		}
	}
}

func TestShardRestartEndpointBumpsGeneration(t *testing.T) {
	_, s := newTestPlane(t)
	w := do(t, s, "POST", "/shards/1/restart", "")
	if w.Code != http.StatusOK {
		t.Fatalf("POST /shards/1/restart = %d: %s", w.Code, w.Body)
	}
	var st hub.Health
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Generation != 2 || st.Restarts != 1 || st.State != hub.ShardRunning {
		t.Fatalf("restarted shard = %+v", st)
	}
	if w := do(t, s, "POST", "/shards/99/restart", ""); w.Code != http.StatusConflict {
		t.Fatalf("restart of unknown shard = %d", w.Code)
	}
	if w := do(t, s, "POST", "/shards/bogus/restart", ""); w.Code != http.StatusBadRequest {
		t.Fatalf("restart with bad id = %d", w.Code)
	}
}

func TestRejuvenateAllEndpoint(t *testing.T) {
	_, s := newTestPlane(t)
	w := do(t, s, "POST", "/rejuvenate", "")
	if w.Code != http.StatusOK {
		t.Fatalf("POST /rejuvenate = %d: %s", w.Code, w.Body)
	}
	var shards []hub.Health
	if err := json.Unmarshal(w.Body.Bytes(), &shards); err != nil {
		t.Fatal(err)
	}
	for _, sh := range shards {
		if sh.Rejuvenations != 1 || sh.Generation != 2 {
			t.Fatalf("shard %d after rolling rejuvenation = %+v", sh.Shard, sh)
		}
	}
}

func TestTenantCRUD(t *testing.T) {
	h, s := newTestPlane(t)
	if w := do(t, s, "POST", "/users", `{"user":"walk-in"}`); w.Code != http.StatusCreated {
		t.Fatalf("POST /users = %d: %s", w.Code, w.Body)
	}
	w := do(t, s, "GET", "/users", "")
	var users []string
	if err := json.Unmarshal(w.Body.Bytes(), &users); err != nil {
		t.Fatal(err)
	}
	if len(users) != 5 {
		t.Fatalf("users = %v", users)
	}
	if w := do(t, s, "DELETE", "/users/walk-in", ""); w.Code != http.StatusNoContent {
		t.Fatalf("DELETE /users/walk-in = %d: %s", w.Code, w.Body)
	}
	if h.Users() != 4 {
		t.Fatalf("Users() = %d after delete", h.Users())
	}
	if w := do(t, s, "DELETE", "/users/walk-in", ""); w.Code != http.StatusNotFound {
		t.Fatalf("second DELETE = %d", w.Code)
	}
	if w := do(t, s, "POST", "/users", `{"user":""}`); w.Code != http.StatusBadRequest {
		t.Fatalf("empty user accepted: %d", w.Code)
	}
	if w := do(t, s, "POST", "/users", `not-json`); w.Code != http.StatusBadRequest {
		t.Fatalf("bad body accepted: %d", w.Code)
	}
}

// TestHealthzTurnsUnavailableOnStoppedShard drives real traffic first
// so the stopped state is the hub's, not a synthetic fixture.
func TestHealthzTurnsUnavailableOnStoppedShard(t *testing.T) {
	h, s := newTestPlane(t)
	a := &alert.Alert{ID: "a-1", Source: "portal", Subject: "s", Urgency: alert.UrgencyNormal, Created: time.Now()}
	if err := h.Submit("user-0", a); err != nil {
		t.Fatal(err)
	}
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	w := do(t, s, "GET", "/healthz", "")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("GET /healthz on drained hub = %d: %s", w.Code, w.Body)
	}
	var report HealthReport
	if err := json.Unmarshal(w.Body.Bytes(), &report); err != nil {
		t.Fatal(err)
	}
	if report.OK {
		t.Fatalf("report.OK = true on drained hub")
	}
}

func TestListenServesOverTCP(t *testing.T) {
	_, s := newTestPlane(t)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz over TCP = %d", resp.StatusCode)
	}
}
