// Package client is the Go client for the pmraced control plane. It speaks
// the versioned REST contract defined in package api — the same typed
// documents the server marshals — over plain net/http, including the
// Server-Sent Events stream, which it decodes back into the typed events of
// the in-process API (pmrace.Event).
//
//	cl := client.New("http://127.0.0.1:7762")
//	c, err := cl.Submit(ctx, api.CampaignSpec{Target: "pclht", MaxExecs: 200})
//	...
//	final, err := cl.Wait(ctx, c.ID, 0)
//	for _, bug := range final.Bugs { ... }
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"github.com/pmrace-go/pmrace/api"
	"github.com/pmrace-go/pmrace/internal/obs"
)

// Client talks to one pmraced server.
type Client struct {
	base string
	hc   *http.Client
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying http.Client (timeouts,
// transports, test doubles). The default client has no timeout — the SSE
// stream is long-lived; bound individual calls with their context.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// New creates a client for the server at baseURL (scheme://host:port; any
// path is stripped — the client appends the versioned API paths itself).
func New(baseURL string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(baseURL, "/"), hc: &http.Client{}}
	for _, o := range opts {
		o(c)
	}
	return c
}

// do performs one API call: JSON request body (when in != nil), JSON
// response into out (when out != nil), api.Error on any non-2xx status.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// decodeError rebuilds the api.Error envelope from a non-2xx response.
func decodeError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	ae := &api.Error{StatusCode: resp.StatusCode}
	if err := json.Unmarshal(raw, ae); err != nil || ae.Code == "" {
		ae.Code = api.CodeInternal
		ae.Message = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return ae
}

// Info fetches the server document.
func (c *Client) Info(ctx context.Context) (*api.ServerInfo, error) {
	var out api.ServerInfo
	if err := c.do(ctx, http.MethodGet, api.BasePath, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Submit submits a campaign and returns its initial document.
func (c *Client) Submit(ctx context.Context, spec api.CampaignSpec) (*api.Campaign, error) {
	var out api.Campaign
	if err := c.do(ctx, http.MethodPost, api.BasePath+"/campaigns", spec, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// List fetches every campaign the server tracks, in submission order.
func (c *Client) List(ctx context.Context) ([]api.Campaign, error) {
	var out []api.Campaign
	if err := c.do(ctx, http.MethodGet, api.BasePath+"/campaigns", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Get fetches one campaign.
func (c *Client) Get(ctx context.Context, id string) (*api.Campaign, error) {
	var out api.Campaign
	if err := c.do(ctx, http.MethodGet, api.BasePath+"/campaigns/"+url.PathEscape(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Cancel cancels a campaign: a pending one settles Cancelled immediately, a
// running one drains and keeps its partial results.
func (c *Client) Cancel(ctx context.Context, id string) (*api.Campaign, error) {
	var out api.Campaign
	if err := c.do(ctx, http.MethodDelete, api.BasePath+"/campaigns/"+url.PathEscape(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Wait polls until the campaign reaches a terminal state and returns its
// final document. poll <= 0 selects 200ms.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (*api.Campaign, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	for {
		doc, err := c.Get(ctx, id)
		if err != nil {
			return nil, err
		}
		if doc.State.Terminal() {
			return doc, nil
		}
		select {
		case <-ctx.Done():
			return doc, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// Artifacts lists a campaign's forensic bundles.
func (c *Client) Artifacts(ctx context.Context, id string) ([]api.ArtifactInfo, error) {
	var out []api.ArtifactInfo
	if err := c.do(ctx, http.MethodGet,
		api.BasePath+"/campaigns/"+url.PathEscape(id)+"/artifacts", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Artifact fetches one bundle.
func (c *Client) Artifact(ctx context.Context, id, name string) (*api.ArtifactBundle, error) {
	var out api.ArtifactBundle
	if err := c.do(ctx, http.MethodGet,
		api.BasePath+"/campaigns/"+url.PathEscape(id)+"/artifacts/"+url.PathEscape(name),
		nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Trace fetches a campaign's span timeline as raw Chrome trace-event JSON —
// the document is written to disk or piped into a viewer (ui.perfetto.dev)
// verbatim, so the client does not decode it. Campaigns running with tracing
// disabled yield a not_found api.Error.
func (c *Client) Trace(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+api.BasePath+"/campaigns/"+url.PathEscape(id)+"/trace", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, decodeError(resp)
	}
	return io.ReadAll(resp.Body)
}

// Events subscribes to a campaign's SSE stream and decodes it back into
// typed events — the same stream Campaign.Events delivers in-process. The
// channel closes when the campaign ends (the server closes the stream after
// the terminal CampaignDone event) or when ctx is cancelled; a transport or
// decode failure closes it too and is reported by the returned error
// function afterwards.
func (c *Client) Events(ctx context.Context, id string) (<-chan api.Event, func() error, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+api.BasePath+"/campaigns/"+url.PathEscape(id)+"/events", nil)
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		return nil, nil, decodeError(resp)
	}

	ch := make(chan api.Event, 256)
	var streamErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer close(ch)
		defer resp.Body.Close()
		streamErr = decodeSSE(ctx, resp.Body, ch)
	}()
	errFn := func() error {
		<-done
		if streamErr != nil && ctx.Err() != nil {
			// Cancellation tears the transport down; that is a normal end.
			return nil
		}
		return streamErr
	}
	return ch, errFn, nil
}

// decodeSSE parses the SSE framing (event:/id:/data: records separated by
// blank lines) and decodes each data payload — the JSONL envelope — into
// its typed event, stamped with the envelope's sequence number and time.
func decodeSSE(ctx context.Context, r io.Reader, ch chan<- api.Event) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if len(data) == 0 {
				continue
			}
			var env struct {
				Kind obs.Kind        `json:"kind"`
				Seq  uint64          `json:"seq"`
				AtMs float64         `json:"at_ms"`
				Data json.RawMessage `json:"data"`
			}
			if err := json.Unmarshal(data, &env); err != nil {
				return fmt.Errorf("client: decoding SSE envelope: %w", err)
			}
			ev, err := obs.DecodeEvent(env.Kind, env.Data)
			if err != nil {
				return err
			}
			*ev.Meta() = obs.EventMeta{Seq: env.Seq, At: time.Duration(env.AtMs * float64(time.Millisecond))}
			select {
			case ch <- ev:
			case <-ctx.Done():
				return ctx.Err()
			}
			data = data[:0]
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")...)
		default:
			// event:/id:/retry: and comments carry no payload we need —
			// the envelope repeats kind and sequence.
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return err
	}
	return nil
}
