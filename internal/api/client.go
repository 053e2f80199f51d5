package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"
)

// Client is the typed v1 client for quotd. It replaces hand-rolled
// http.Post + inline JSON decoding everywhere the repo talks to the
// daemon: the load harness, the CLI-vs-daemon differential tests, and —
// between shards — quotd itself.
//
// A Client may be given several node addresses (a cluster). Requests go to
// one node; a transport-level failure (connection refused, reset, timeout
// dialing) rotates to the next address and retries, because every v1
// operation is idempotent: derivations are content-addressed pure
// functions, uploads are last-write-wins puts, reads are reads. HTTP-level
// errors are authoritative answers and are never retried.
type Client struct {
	addrs []string // host:port, no scheme
	hc    *http.Client
	cur   atomic.Int32 // index of the address that answered last
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithHTTPClient substitutes the underlying http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.hc = hc }
}

// WithTimeout sets the per-attempt request timeout (default 60s).
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.hc.Timeout = d }
}

// NewClient returns a client for one quotd node. addr is "host:port" or a
// base URL; a missing scheme defaults to http.
func NewClient(addr string, opts ...ClientOption) *Client {
	return NewClusterClient([]string{addr}, opts...)
}

// NewClusterClient returns a client over several quotd nodes with
// transport-level failover. The address list is the client's static view of
// the cluster; the nodes' own ring does the real routing, so any live node
// can answer any request.
func NewClusterClient(addrs []string, opts ...ClientOption) *Client {
	c := &Client{hc: &http.Client{Timeout: 60 * time.Second}}
	for _, a := range addrs {
		if a = strings.TrimSpace(a); a != "" {
			c.addrs = append(c.addrs, a)
		}
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

func baseURL(addr string) string {
	if strings.Contains(addr, "://") {
		return strings.TrimSuffix(addr, "/")
	}
	return "http://" + addr
}

// do runs one HTTP exchange against the cluster, rotating addresses on
// transport errors. The response body is decoded into out (when non-nil)
// for 2xx; non-2xx bodies are decoded into the structured error envelope
// and returned as *Error.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	if len(c.addrs) == 0 {
		return &Error{Code: ErrCodeInternal, Message: "api: client has no addresses"}
	}
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return &Error{Code: ErrCodeInternal, Message: "api: encode request: " + err.Error()}
		}
	}
	start := int(c.cur.Load())
	var lastErr error
	for i := 0; i < len(c.addrs); i++ {
		idx := (start + i) % len(c.addrs)
		err := c.doOne(ctx, c.addrs[idx], method, path, body, out)
		if err == nil {
			c.cur.Store(int32(idx))
			return nil
		}
		if _, ok := err.(*Error); ok {
			// An authoritative server answer; failing over would re-ask a
			// question that was already answered.
			c.cur.Store(int32(idx))
			return err
		}
		if ctx.Err() != nil {
			return &Error{Code: ErrCodeCanceled, Message: "api: " + ctx.Err().Error()}
		}
		lastErr = err
	}
	return &Error{Code: ErrCodePeerUnavailable,
		Message: fmt.Sprintf("api: no node of %d reachable: %v", len(c.addrs), lastErr)}
}

func (c *Client) doOne(ctx context.Context, addr, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, baseURL(addr)+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err // transport error: candidate for failover
	}
	defer resp.Body.Close()
	if v := resp.Header.Get(VersionHeader); v != "" && v != Version {
		return &Error{Code: ErrCodeInternal,
			Message: fmt.Sprintf("api: server speaks %s, client speaks %s", v, Version)}
	}
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return &Error{Code: ErrCodeInternal,
			Message: fmt.Sprintf("api: decode %s %s response: %v", method, path, err)}
	}
	return nil
}

// decodeError turns a non-2xx response into a structured *Error. Every v1
// error body is either a DeriveResponse carrying the envelope or the bare
// envelope itself; both decode here, and an undecodable body degrades to an
// internal error that still reports the status.
func decodeError(resp *http.Response) *Error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var env DeriveResponse
	if err := json.Unmarshal(data, &env); err == nil && env.Error != nil && env.Error.Code != "" {
		return env.Error
	}
	var bare Error
	if err := json.Unmarshal(data, &bare); err == nil && bare.Code != "" {
		return &bare
	}
	return &Error{Code: ErrCodeInternal,
		Message: fmt.Sprintf("api: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))}
}

// Derive posts one derivation request. A definitive answer — a converter,
// or a nonexistence proof — returns (resp, nil); the caller inspects
// resp.Exists and resp.Error (code no_quotient). A failed request returns
// the structured *Error.
func (c *Client) Derive(ctx context.Context, req *DeriveRequest) (*DeriveResponse, error) {
	var out DeriveResponse
	if err := c.do(ctx, http.MethodPost, "/"+Version+"/derive", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats returns one node's stats snapshot (the node the client is currently
// pinned to, after any failover).
func (c *Client) Stats(ctx context.Context) (*StatsResponse, error) {
	var out StatsResponse
	if err := c.do(ctx, http.MethodGet, "/"+Version+"/stats", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Ready reports nil when the pinned node answers /readyz with 200.
func (c *Client) Ready(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/readyz", nil, nil)
}

// addrDo is the peer-directed variant of do: exactly one address, no
// failover — shard routing decides the target, not the client.
func (c *Client) addrDo(ctx context.Context, addr, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return &Error{Code: ErrCodeInternal, Message: "api: encode request: " + err.Error()}
		}
	}
	return c.doOne(ctx, addr, method, path, body, out)
}

// PeerFill asks the node at addr — the key's owner shard — to answer the
// request from its cache or derive it. Transport errors come back raw (not
// *Error) so the caller can distinguish "owner unreachable" from an
// authoritative owner answer.
func (c *Client) PeerFill(ctx context.Context, addr string, req *DeriveRequest) (*PeerFillResponse, error) {
	var out PeerFillResponse
	if err := c.addrDo(ctx, addr, http.MethodPost, "/"+Version+"/peer/artifact", PeerFillRequest{Request: *req}, &out); err != nil {
		return nil, err
	}
	if out.Artifact == nil {
		return nil, &Error{Code: ErrCodeInternal, Message: "api: peer fill returned no artifact"}
	}
	return &out, nil
}

// PeerArtifact fetches the artifact stored under key at addr without
// triggering a derivation; a *Error with code not_found means the peer does
// not have it.
func (c *Client) PeerArtifact(ctx context.Context, addr, key string) (*Artifact, error) {
	var out Artifact
	path := "/" + Version + "/peer/artifact/" + url.PathEscape(key)
	if err := c.addrDo(ctx, addr, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// PeerKeys lists the keys in the in-memory cache of the node at addr.
func (c *Client) PeerKeys(ctx context.Context, addr string) ([]string, error) {
	var out PeerKeysResponse
	if err := c.addrDo(ctx, addr, http.MethodGet, "/"+Version+"/peer/keys", nil, &out); err != nil {
		return nil, err
	}
	return out.Keys, nil
}
