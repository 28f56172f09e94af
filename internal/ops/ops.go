// Package ops is the hub's HTTP admin plane: liveness and per-shard
// health for monitoring, tenant CRUD for provisioning, and POST
// triggers for the recovery verbs (targeted shard restart, graceful
// rejuvenation) that the supervision plane otherwise drives
// automatically. Everything is stdlib net/http and JSON; the server is
// meant to listen on a loopback or operations network, not the public
// alert ingress.
package ops

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"simba/internal/hub"
	"simba/internal/stabilize"
)

// Config parameterizes a Server.
type Config struct {
	// Hub is the hub under administration; required.
	Hub *hub.Hub
	// Supervisor, when set, is the stabilizer Hub.Supervise returned; its
	// per-check counters appear on /healthz. Optional — the admin plane
	// works on an unsupervised hub.
	Supervisor *stabilize.Stabilizer
}

// Server is the admin plane's handler set plus an optional listener.
type Server struct {
	cfg Config
	mux *http.ServeMux

	mu   sync.Mutex
	ln   net.Listener
	http *http.Server
}

// NewServer builds the admin plane over the given hub.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Hub == nil {
		return nil, errors.New("ops: Config requires Hub")
	}
	s := &Server{cfg: cfg, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /shards", s.handleShards)
	s.mux.HandleFunc("GET /shards/{id}", s.handleShard)
	s.mux.HandleFunc("POST /shards/{id}/restart", s.handleShardRestart)
	s.mux.HandleFunc("POST /shards/{id}/rejuvenate", s.handleShardRejuvenate)
	s.mux.HandleFunc("POST /rejuvenate", s.handleRejuvenateAll)
	s.mux.HandleFunc("GET /users", s.handleListUsers)
	s.mux.HandleFunc("POST /users", s.handleAddUser)
	s.mux.HandleFunc("DELETE /users/{user}", s.handleRemoveUser)
	return s, nil
}

// Handler returns the admin mux (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Listen binds addr and serves the admin plane until Close. It returns
// the bound address (useful with ":0").
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	s.mu.Lock()
	s.ln = ln
	s.http = srv
	s.mu.Unlock()
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Close stops the listener, if any.
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.http
	s.http = nil
	s.ln = nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

// HealthReport is the /healthz body.
type HealthReport struct {
	// OK is false when any shard is Stopped — the one state with no
	// path back to serving without operator action. A restarting shard
	// is alive: the recovery machinery owns the transition and bounds it
	// with a timeout.
	OK         bool         `json:"ok"`
	Users      int          `json:"users"`
	WALBacklog int          `json:"wal_backlog"`
	Shards     []hub.Health `json:"shards"`
	// Invariants is the supervision plane's one check list — each
	// shard's check, the hub-wide ones, scheduled rejuvenation — with
	// how often each ran, failed, healed and escalated.
	Invariants []stabilize.CheckStats `json:"invariants,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.cfg.Hub
	report := HealthReport{OK: true, Users: h.Users(), WALBacklog: h.WALBacklog(), Shards: h.Healths()}
	for _, hl := range report.Shards {
		if hl.State == hub.ShardStopped {
			report.OK = false
		}
	}
	if sup := s.cfg.Supervisor; sup != nil {
		report.Invariants = sup.Stats()
	}
	code := http.StatusOK
	if !report.OK {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, report)
}

func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cfg.Hub.Healths())
}

func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	id, ok := s.shardID(w, r)
	if !ok {
		return
	}
	hl, err := s.cfg.Hub.ShardHealth(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, hl)
}

func (s *Server) handleShardRestart(w http.ResponseWriter, r *http.Request) {
	id, ok := s.shardID(w, r)
	if !ok {
		return
	}
	if err := s.cfg.Hub.RestartShard(id, "admin request"); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	hl, _ := s.cfg.Hub.ShardHealth(id)
	writeJSON(w, http.StatusOK, hl)
}

func (s *Server) handleShardRejuvenate(w http.ResponseWriter, r *http.Request) {
	id, ok := s.shardID(w, r)
	if !ok {
		return
	}
	if err := s.cfg.Hub.RejuvenateShard(id); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	hl, _ := s.cfg.Hub.ShardHealth(id)
	writeJSON(w, http.StatusOK, hl)
}

func (s *Server) handleRejuvenateAll(w http.ResponseWriter, r *http.Request) {
	if err := s.cfg.Hub.RejuvenateAll(); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.Hub.Healths())
}

func (s *Server) handleListUsers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cfg.Hub.UserNames())
}

// addUserRequest is the POST /users body.
type addUserRequest struct {
	User string `json:"user"`
}

func (s *Server) handleAddUser(w http.ResponseWriter, r *http.Request) {
	var req addUserRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode body: %w", err))
		return
	}
	if req.User == "" {
		writeError(w, http.StatusBadRequest, errors.New("user is required"))
		return
	}
	if _, err := s.cfg.Hub.AddUser(req.User); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"user": req.User})
}

func (s *Server) handleRemoveUser(w http.ResponseWriter, r *http.Request) {
	user := r.PathValue("user")
	if err := s.cfg.Hub.RemoveUser(user); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) shardID(w http.ResponseWriter, r *http.Request) (int, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("shard id %q: %w", r.PathValue("id"), err))
		return 0, false
	}
	return id, true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
