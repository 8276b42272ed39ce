// The batch and artifact-store side of the client: post many run
// specs against one compiled image (Batch), stream a batch's per-run
// lifecycle events (StreamBatch), and persist/fetch compiled images in
// the server's artifact store (PutImage/GetImage). Every method rides
// the same hedging, backoff and idempotency machinery as Run,
// so a retried batch never executes its runs twice.
package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"roload/internal/schema"
	"roload/internal/telemetry"
)

// BatchResult is one successful logical batch request.
type BatchResult struct {
	// Report is the roload-batch/v1 report: per-run statuses and bodies
	// byte-identical to the equivalent individual Run calls.
	Report schema.BatchReport
	// Replayed is set when the server answered from its idempotency
	// cache rather than executing the batch again.
	Replayed bool
	Attempts int
	Hedged   int
	// BatchID is the batch-scoped run id shared with the server: the
	// handle for StreamBatch and FetchTrace, and the prefix of every
	// per-run id ("<batch id>.<n>").
	BatchID string
	// Trace is the client-side span document of the batch request.
	Trace schema.TraceDoc
}

// Batch executes one batch of runs against a single compiled image
// with retries, hedging and idempotency.
func (c *Client) Batch(ctx context.Context, req schema.BatchRequest) (*BatchResult, error) {
	return c.BatchWithID(ctx, telemetry.NewRunID(), req)
}

// BatchWithID is Batch under a caller-chosen batch id, which lets the
// caller StreamBatch the live events before posting.
func (c *Client) BatchWithID(ctx context.Context, batchID string, req schema.BatchRequest) (*BatchResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("client: encoding batch request: %w", err)
	}
	reply, attempts, hedged, doc, err := c.execute(ctx, c.nextKey(), batchID, http.MethodPost, "/v1/batch", body)
	if err != nil {
		return nil, err
	}
	if reply.status != http.StatusOK {
		return nil, reply.apiError()
	}
	var report schema.BatchReport
	if err := reply.env.Open(schema.ServeV1, &report); err != nil {
		return nil, fmt.Errorf("client: decoding batch report: %w", err)
	}
	if err := report.Validate(); err != nil {
		return nil, fmt.Errorf("client: invalid batch report: %w", err)
	}
	return &BatchResult{
		Report:   report,
		Replayed: reply.replayed,
		Attempts: attempts,
		Hedged:   hedged,
		BatchID:  batchID,
		Trace:    doc,
	}, nil
}

// StreamBatch subscribes to a batch's live event stream (the same
// wire protocol as Stream, under the batch-scoped id). Each event's
// Run field carries the 1-based index of the run it belongs to — 0 is
// the batch itself, whose terminal "result" event carries the
// roload-batch/v1 report envelope and closes the channel. Per-run
// lifecycles arrive as "run-start"/"run-result" pairs interleaved
// with the usual progress, audit and checkpoint events.
func (c *Client) StreamBatch(ctx context.Context, batchID string) (<-chan schema.RunEvent, error) {
	return c.Stream(ctx, batchID)
}

// ImageResult is one stored image.
type ImageResult struct {
	// Digest is the kernel image digest the artifact is stored under —
	// the value for RunRequest.ImageDigest / BatchRequest.ImageDigest.
	Digest string
	// Reused is set when the store already held the digest.
	Reused   bool
	Attempts int
	Hedged   int
}

// PutImage compiles (or assembles) source server-side exactly once and
// persists the image in the server's artifact store. Requires a server
// started with -store.
func (c *Client) PutImage(ctx context.Context, req schema.ImageRequest) (*ImageResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("client: encoding image request: %w", err)
	}
	reply, attempts, hedged, _, err := c.execute(ctx, c.nextKey(), telemetry.NewRunID(), http.MethodPost, "/v1/images", body)
	if err != nil {
		return nil, err
	}
	if reply.status != http.StatusOK && reply.status != http.StatusCreated {
		return nil, reply.apiError()
	}
	var resp schema.ImageResponse
	if err := reply.env.Open(schema.ServeV1, &resp); err != nil {
		return nil, fmt.Errorf("client: decoding image response: %w", err)
	}
	return &ImageResult{
		Digest:   resp.Digest,
		Reused:   resp.Reused,
		Attempts: attempts,
		Hedged:   hedged,
	}, nil
}

// GetImage fetches a stored roload-image/v1 document by digest. The
// body is the bare artifact (not a serve envelope), ready for
// core.DecodeImage or roload-run.
func (c *Client) GetImage(ctx context.Context, digest string) (schema.ImageDoc, error) {
	reply, _, _, _, err := c.execute(ctx, c.nextKey(), telemetry.NewRunID(), http.MethodGet, "/v1/images/"+digest, nil)
	if err != nil {
		return schema.ImageDoc{}, err
	}
	if reply.status != http.StatusOK {
		return schema.ImageDoc{}, reply.apiError()
	}
	id, doc, err := schema.DecodeAny(reply.raw)
	if err != nil {
		return schema.ImageDoc{}, fmt.Errorf("client: decoding image document: %w", err)
	}
	img, ok := doc.(*schema.ImageDoc)
	if !ok || id != schema.ImageV1 {
		return schema.ImageDoc{}, fmt.Errorf("client: image endpoint answered a %s document", id)
	}
	return *img, nil
}

// GetArtifact fetches one stored artifact by kind family name
// ("roload-checkpoint") and digest from the generalized store surface
// (GET /v1/store/{kind}/{digest}). The bytes are the bare artifact,
// verified against the digest before they are returned.
func (c *Client) GetArtifact(ctx context.Context, kindName, digest string) ([]byte, error) {
	k, ok := schema.KindByName(kindName)
	if !ok {
		return nil, fmt.Errorf("client: unknown artifact kind %q", kindName)
	}
	reply, _, _, _, err := c.execute(ctx, c.nextKey(), telemetry.NewRunID(),
		http.MethodGet, "/v1/store/"+kindName+"/"+digest, nil)
	if err != nil {
		return nil, err
	}
	if reply.status != http.StatusOK {
		return nil, reply.apiError()
	}
	if err := schema.VerifyArtifact(k.ID, digest, reply.raw); err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	return reply.raw, nil
}

// PutArtifact stores one artifact body under kind family name and
// digest (PUT /v1/store/{kind}/{digest}); the server re-verifies the
// digest before accepting. added reports whether the put wrote
// anything (false: the store already held the key).
func (c *Client) PutArtifact(ctx context.Context, kindName, digest string, body []byte) (added bool, err error) {
	reply, _, _, _, err := c.execute(ctx, c.nextKey(), telemetry.NewRunID(),
		http.MethodPut, "/v1/store/"+kindName+"/"+digest, body)
	if err != nil {
		return false, err
	}
	if reply.status != http.StatusOK && reply.status != http.StatusCreated {
		return false, reply.apiError()
	}
	var resp schema.StorePutResponse
	if err := reply.env.Open(schema.ServeV1, &resp); err != nil {
		return false, fmt.Errorf("client: decoding store put response: %w", err)
	}
	return resp.Added, nil
}
