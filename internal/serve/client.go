package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Client talks to a `gsight serve` deployment: one or more base URLs
// (active first, standbys after). Retryable failures — connection
// refused, 429, 503, mid-flight daemon death — back off and rotate to
// the next address, so a takeover is invisible to the caller beyond
// latency. Idempotency across the retry boundary comes from order
// numbers: a retried ordered request that was already acknowledged is
// answered from the daemon's response cache with the original bytes.
type Client struct {
	addrs []string
	hc    *http.Client
	// cur is the index of the address that last worked (not
	// goroutine-safe; loadgen gives each worker its own Client).
	cur int
	// MaxAttempts bounds tries per call across all addresses (default 8).
	MaxAttempts int
	// Shed counts 429 answers absorbed by retries (same goroutine as
	// the calls; read after the client goes quiet).
	Shed uint64
}

// NewClient builds a client for the given base URLs
// (e.g. "http://127.0.0.1:7070").
func NewClient(addrs ...string) *Client {
	return &Client{
		addrs:       addrs,
		hc:          &http.Client{Timeout: 10 * time.Second},
		MaxAttempts: 8,
	}
}

// A retry waits backoffMin, doubling per attempt up to backoffMax.
const (
	backoffMin = 10 * time.Millisecond
	backoffMax = time.Second
)

// apiError is a non-2xx daemon answer.
type apiError struct {
	Status int
	Msg    string
}

func (e *apiError) Error() string { return fmt.Sprintf("serve: %d: %s", e.Status, e.Msg) }

// retryable reports whether an error may succeed on another attempt
// (possibly against another address).
func retryable(err error) bool {
	var ae *apiError
	if errors.As(err, &ae) {
		switch ae.Status {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable,
			http.StatusConflict, http.StatusBadGateway:
			return true
		}
		return false
	}
	return err != nil // transport errors (refused, reset, EOF) retry
}

// post sends one JSON request, rotating addresses and backing off on
// retryable failures until ctx expires or attempts run out.
func (c *Client) post(ctx context.Context, path string, body, out interface{}) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	backoff := backoffMin
	var lastErr error
	for attempt := 0; attempt < c.MaxAttempts; attempt++ {
		addr := c.addrs[c.cur]
		lastErr = c.postOnce(ctx, addr+path, payload, out)
		if lastErr == nil {
			return nil
		}
		if !retryable(lastErr) {
			return lastErr
		}
		var ae *apiError
		if errors.As(lastErr, &ae) && ae.Status == http.StatusTooManyRequests {
			c.Shed++
		}
		c.cur = (c.cur + 1) % len(c.addrs)
		select {
		case <-ctx.Done():
			return fmt.Errorf("%w (last: %v)", ctx.Err(), lastErr)
		case <-time.After(backoff):
		}
		backoff *= 2
		backoff = min(backoff, backoffMax)
	}
	return fmt.Errorf("serve: %d attempts exhausted: %w", c.MaxAttempts, lastErr)
}

func (c *Client) postOnce(ctx context.Context, url string, payload []byte, out interface{}) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var er errorResponse
		msg := string(data)
		if json.Unmarshal(data, &er) == nil && er.Error != "" {
			msg = er.Error
		}
		return &apiError{Status: resp.StatusCode, Msg: msg}
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// PlaceAck is the acknowledgement for one placement, as the daemon
// encodes it and the client decodes it.
type PlaceAck struct {
	Seq       uint64  `json:"seq"`
	Order     uint64  `json:"order,omitempty"`
	Name      string  `json:"name"`
	Outcome   string  `json:"outcome"`
	Placement []int   `json:"placement,omitempty"`
	Reason    string  `json:"reason,omitempty"`
	PredIPC   float64 `json:"pred_ipc,omitempty"`
	PredJCTS  float64 `json:"pred_jct_s,omitempty"`
}

// Place requests one placement.
func (c *Client) Place(ctx context.Context, req PlaceRequest) (*PlaceAck, error) {
	var ack PlaceAck
	if err := c.post(ctx, "/v1/place", req, &ack); err != nil {
		return nil, err
	}
	return &ack, nil
}

// Observe feeds one QoS measurement back.
func (c *Client) Observe(ctx context.Context, req ObserveRequest) (*observeResponse, error) {
	var ack observeResponse
	if err := c.post(ctx, "/v1/observe", req, &ack); err != nil {
		return nil, err
	}
	return &ack, nil
}

// Release frees a placed instance.
func (c *Client) Release(ctx context.Context, req ReleaseRequest) (*releaseResponse, error) {
	var ack releaseResponse
	if err := c.post(ctx, "/v1/release", req, &ack); err != nil {
		return nil, err
	}
	return &ack, nil
}

// State fetches the daemon status.
func (c *Client) State(ctx context.Context) (*stateResponse, error) {
	addr := c.addrs[c.cur]
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/v1/state", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st stateResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// WaitReady polls /readyz until the daemon (any address) reports
// ready or ctx expires.
func (c *Client) WaitReady(ctx context.Context) error {
	for {
		for _, addr := range c.addrs {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/readyz", nil)
			if err != nil {
				return err
			}
			if resp, err := c.hc.Do(req); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return nil
				}
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("serve: not ready: %w", ctx.Err())
		case <-time.After(50 * time.Millisecond):
		}
	}
}
