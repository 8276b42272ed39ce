// The generalized artifact-store surface and the fleet-replication
// client side. GET/PUT /v1/store/{kind}/{digest} expose every
// registered artifact kind by family name ("roload-image",
// "roload-checkpoint", ...); GET /v1/store/roload-image/{d} serves the
// exact bytes of GET /v1/images/{d}. The peer side is what makes the
// fleet's state durable: the gateway names the digest's replica set in
// a Roload-Store-Peers header, writes push synchronously to those
// peers, and a miss (a resume landing on a backend that never saw the
// checkpoint) fetches from them — so a checkpoint written before its
// owner was SIGKILLed resumes bit-identically on a survivor. Every
// byte crossing the peer boundary is re-verified against its digest
// before it may enter (or leave for) a store.
package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"

	"roload/internal/httpapi"
	"roload/internal/schema"
)

// storePeersHeader names the replica peers of the request's artifacts:
// a comma-separated list of base URLs the gateway computed from its
// hash ring. Peer-to-peer pushes and fetches never carry it — that is
// what keeps replication from cascading.
const storePeersHeader = "Roload-Store-Peers"

// parsePeers splits the Roload-Store-Peers header into base URLs.
func parsePeers(header string) []string {
	if header == "" {
		return nil
	}
	var peers []string
	for _, p := range strings.Split(header, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, strings.TrimRight(p, "/"))
		}
	}
	return peers
}

// pinIfPrecious pins the kinds whose loss would break a client-held
// handle: images (checkpoints pin their image's digest implicitly),
// checkpoints (a replica must survive GC at least as long as the
// original's pin), and run results (the resumable-batch contract).
// Reports and other content-addressed artifacts stay unpinned.
func (s *Server) pinIfPrecious(kind, digest string) {
	switch kind {
	case schema.ImageV1, schema.CheckpointV1, schema.RunResultV1:
		s.store.Pin(digest) //nolint:errcheck // best effort: an unpinned replica is still present
	}
}

// handleStoreGet is GET /v1/store/{kind}/{digest}: the stored artifact,
// bare — an artifact, not a serve payload, so it round-trips through
// roload-run -resume and the schema registry unchanged. It also serves
// GET /v1/images/{digest}, through imageKind.
func (s *Server) handleStoreGet(w http.ResponseWriter, r *http.Request) {
	k, ok := schema.KindByName(r.PathValue("kind"))
	if !ok {
		notFoundError(fmt.Sprintf("unknown artifact kind %q", r.PathValue("kind"))).write(w)
		return
	}
	digest := r.PathValue("digest")
	raw, err := s.store.Get(k.ID, digest)
	if err != nil {
		notFoundError(fmt.Sprintf("%s %s is not in the store", schema.KindName(k.ID), digest)).write(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(raw) //nolint:errcheck // client gone: nothing to report to
}

// imageKind fixes a store route's {kind} to roload-image: the
// GET /v1/images/{digest} alias is the store GET of that kind.
func imageKind(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		r.SetPathValue("kind", schema.KindName(schema.ImageV1))
		h(w, r)
	}
}

// handleStorePut is PUT /v1/store/{kind}/{digest}: accept one artifact
// body, verify it derives the digest it claims (VerifyArtifact — a
// corrupt or misdirected replica is rejected at the boundary), and
// persist it. 201 on first store, 200 when the store already held the
// key. This is the endpoint replication and read-repair speak.
func (s *Server) handleStorePut(w http.ResponseWriter, r *http.Request) {
	k, ok := schema.KindByName(r.PathValue("kind"))
	if !ok {
		validationError(fmt.Sprintf("unknown artifact kind %q", r.PathValue("kind"))).write(w)
		return
	}
	digest := r.PathValue("digest")
	if digest == "" {
		validationError("artifact digest is required").write(w)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		(&apiError{http.StatusRequestEntityTooLarge, schema.ErrorResponse{
			Error: err.Error(), Kind: "validation"}}).write(w)
		return
	}
	if err := schema.VerifyArtifact(k.ID, digest, body); err != nil {
		validationError(err.Error()).write(w)
		return
	}
	added, err := s.store.Put(k.ID, digest, body)
	if err != nil {
		internalError(err).write(w)
		return
	}
	if added {
		s.pinIfPrecious(k.ID, digest)
	}
	status := http.StatusCreated
	if !added {
		status = http.StatusOK
	}
	httpapi.WriteEnvelope(w, status, schema.StorePutResponse{
		Kind: k.ID, Digest: digest, Added: added,
	})
}

// peerFetch resolves a local store miss against the digest's replica
// peers: try each in order, re-verify the bytes against the digest,
// land them in the local store (read-through repair), and return them.
// The error is the last peer's when every peer misses.
func (s *Server) peerFetch(ctx context.Context, peers []string, kind, digest string) ([]byte, error) {
	name := schema.KindName(kind)
	err := fmt.Errorf("no peers to fetch %s %s from", name, digest)
	for _, peer := range peers {
		s.replFetches.Add(1)
		var raw []byte
		if raw, err = s.peerGet(ctx, peer, name, digest); err != nil {
			continue
		}
		if err = schema.VerifyArtifact(kind, digest, raw); err != nil {
			s.cfg.Logger.LogAttrs(ctx, slog.LevelWarn, "peer artifact rejected",
				slog.String("peer", peer), slog.String("kind", name),
				slog.String("digest", digest), slog.String("err", err.Error()))
			continue
		}
		s.replFetchHits.Add(1)
		if added, perr := s.store.Put(kind, digest, raw); perr == nil && added {
			s.pinIfPrecious(kind, digest)
		}
		return raw, nil
	}
	return nil, fmt.Errorf("fetching %s %s from peers: %w", name, digest, err)
}

func (s *Server) peerGet(ctx context.Context, peer, kindName, digest string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		peer+"/v1/store/"+kindName+"/"+digest, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.peerHTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, s.cfg.MaxBodyBytes+1))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peer %s answered %d for %s/%s", peer, resp.StatusCode, kindName, digest)
	}
	if int64(len(raw)) > s.cfg.MaxBodyBytes {
		return nil, fmt.Errorf("peer %s artifact %s/%s exceeds the body cap", peer, kindName, digest)
	}
	return raw, nil
}

// replicateToPeers write-through-replicates one artifact to its replica
// peers, synchronously and in parallel: when it returns, every
// reachable peer holds the bytes — which is what lets a resume land on
// any replica after the writer is SIGKILLed. Failures are counted and
// logged, never fatal: the local write (the durability floor) already
// succeeded.
func (s *Server) replicateToPeers(peers []string, kind, digest string, body []byte) {
	if len(peers) == 0 || s.store == nil {
		return
	}
	name := schema.KindName(kind)
	var wg sync.WaitGroup
	for _, peer := range peers {
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.PeerTimeout)
			defer cancel()
			if err := s.peerPut(ctx, peer, name, digest, body); err != nil {
				s.replPushFail.Add(1)
				s.cfg.Logger.LogAttrs(ctx, slog.LevelWarn, "artifact push failed",
					slog.String("peer", peer), slog.String("kind", name),
					slog.String("digest", digest), slog.String("err", err.Error()))
				return
			}
			s.replPushes.Add(1)
		}(peer)
	}
	wg.Wait()
}

func (s *Server) peerPut(ctx context.Context, peer, kindName, digest string, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut,
		peer+"/v1/store/"+kindName+"/"+digest, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.peerHTTP.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for connection reuse
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("peer %s answered %d for %s/%s", peer, resp.StatusCode, kindName, digest)
	}
	return nil
}

// putReplicated is the one write path every fleet-visible artifact
// takes: persist locally, pin if precious, push to the replica peers.
func (s *Server) putReplicated(peers []string, kind, digest string, body []byte) error {
	added, err := s.store.Put(kind, digest, body)
	if err != nil {
		return err
	}
	if added {
		s.pinIfPrecious(kind, digest)
	}
	s.replicateToPeers(peers, kind, digest, body)
	return nil
}

// storeGetOrFetch is the one read path: the local store first, then the
// digest's replica peers.
func (s *Server) storeGetOrFetch(ctx context.Context, peers []string, kind, digest string) ([]byte, error) {
	raw, err := s.store.Get(kind, digest)
	if err == nil {
		return raw, nil
	}
	if len(peers) == 0 {
		return nil, err
	}
	return s.peerFetch(ctx, peers, kind, digest)
}

// replicationMetrics snapshots the peer-traffic counters (nil when no
// peer traffic has happened — the single-backend deployment's metrics
// stay unchanged).
func (s *Server) replicationMetrics() *schema.StoreReplication {
	m := schema.StoreReplication{
		Pushes:        s.replPushes.Load(),
		PushFailures:  s.replPushFail.Load(),
		PeerFetches:   s.replFetches.Load(),
		PeerFetchHits: s.replFetchHits.Load(),
	}
	if m.Pushes == 0 && m.PushFailures == 0 && m.PeerFetches == 0 {
		return nil
	}
	return &m
}
