// The streaming consumer: frame parsing with torn-tail discard, sequence
// checking, per-module reassembly, and transparent resume across
// disconnects via the acked-key protocol.
package client

import (
	"bufio"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"

	"lasagne/internal/serve"
)

// FuncResult is one streamed function frame, decoded.
type FuncResult struct {
	Func     string
	Key      string // hex cache key; empty for degraded results
	Body     []byte // canonical IR encoding (cache.EncodeBody bytes)
	Placed   int
	Merged   int
	Degraded bool
	CacheHit bool
}

// ModuleResult is one reassembled batch entry. Status mirrors what a unary
// /translate of the same module would have returned; a non-200 entry means
// that module failed while the rest of the batch streamed on.
type ModuleResult struct {
	Name        string
	Status      int
	Object      []byte // decoded translated object (on 200)
	Err         string
	Stats       *serve.StatsJSON
	Diagnostics []serve.DiagJSON
	Degraded    []string
	Funcs       []FuncResult // in arrival order
}

// streamState is the cross-attempt resume state of one TranslateStream
// call: everything acked so far, and every module already completed.
type streamState struct {
	mods      []serve.ModuleRequest
	acked     []string
	ackedSet  map[string]bool
	funcs     map[string][]FuncResult  // module → frames (across attempts)
	completed map[string]*ModuleResult // module → final result
	resumes   int
}

// TranslateStream sends a batch to /translate/stream and reassembles the
// NDJSON frames into per-module results. A mid-stream disconnect is
// resumed transparently: the retry carries every acked function key (the
// server skips re-sending them and the shared cache skips recomputing
// them) and drops modules whose final frame already arrived. Empty module
// names are materialized as "m<index>" before the first attempt so resume
// identity is stable.
func (c *Client) TranslateStream(ctx context.Context, mods []serve.ModuleRequest, cfg *serve.ConfigJSON) (map[string]*ModuleResult, error) {
	if len(mods) == 0 {
		return nil, fmt.Errorf("client: empty batch")
	}
	st := &streamState{
		mods:      make([]serve.ModuleRequest, len(mods)),
		ackedSet:  map[string]bool{},
		funcs:     map[string][]FuncResult{},
		completed: map[string]*ModuleResult{},
	}
	copy(st.mods, mods)
	for i := range st.mods {
		if st.mods[i].Name == "" {
			st.mods[i].Name = fmt.Sprintf("m%d", i)
		}
	}

	if err := c.call(ctx, func() (bool, error) { return c.streamOnce(ctx, st, cfg) }); err != nil {
		return nil, err
	}
	out := make(map[string]*ModuleResult, len(st.completed))
	for name, mr := range st.completed {
		mr.Funcs = st.funcs[name]
		out[name] = mr
	}
	return out, nil
}

// streamOnce runs one HTTP attempt. With a nil error every module has
// completed. retry marks a transport failure, a torn stream or a retryable
// status; a protocol violation (ErrMalformedStream-wrapped) or a final
// status ends the call.
func (c *Client) streamOnce(ctx context.Context, st *streamState, cfg *serve.ConfigJSON) (retry bool, err error) {
	// Drop completed modules from the request; carry the acked keys.
	remaining := make([]serve.ModuleRequest, 0, len(st.mods))
	for _, m := range st.mods {
		if st.completed[m.Name] == nil {
			remaining = append(remaining, m)
		}
	}
	if len(remaining) == 0 {
		return false, nil
	}
	if len(st.acked) > 0 || len(st.completed) > 0 {
		st.resumes++
	}
	body, err := json.Marshal(&serve.StreamRequest{
		Modules: remaining,
		Config:  cfg,
		Acked:   st.acked,
	})
	if err != nil {
		return false, err
	}
	res, retry, err := c.send(ctx, "/translate/stream", body)
	if err != nil {
		return retry, err
	}
	defer res.Body.Close()

	// Frame loop. The framing invariant: every complete line (trailing
	// newline present) is a complete frame; a read that ends without a
	// newline is a torn tail from a dropped connection — discarded, and
	// the acked state makes the re-request cheap.
	br := bufio.NewReaderSize(res.Body, 64<<10)
	seq := 0
	sawDone := false
	for {
		line, rerr := br.ReadString('\n')
		if rerr != nil {
			// io.EOF with a partial line is the torn tail; any other error
			// is the transport dying. Both retry (unless done already
			// arrived, which ends the loop below before reading again).
			return true, fmt.Errorf("client: stream interrupted: %w", rerr)
		}
		var fr serve.Frame
		if err := json.Unmarshal([]byte(line), &fr); err != nil {
			return false, fmt.Errorf("%w: unparsable frame: %v", ErrMalformedStream, err)
		}
		if fr.Seq != seq {
			return false, fmt.Errorf("%w: sequence gap: got %d, want %d", ErrMalformedStream, fr.Seq, seq)
		}
		seq++
		switch fr.Type {
		case serve.FrameFunc:
			f := FuncResult{Func: fr.Func, Key: fr.Key, Placed: fr.Placed,
				Merged: fr.Merged, Degraded: fr.FuncDegraded, CacheHit: fr.CacheHit}
			if fr.Body != "" {
				b, err := base64.StdEncoding.DecodeString(fr.Body)
				if err != nil {
					return false, fmt.Errorf("%w: bad func body base64: %v", ErrMalformedStream, err)
				}
				f.Body = b
			}
			st.funcs[fr.Module] = append(st.funcs[fr.Module], f)
			if fr.Key != "" && !st.ackedSet[fr.Key] {
				st.ackedSet[fr.Key] = true
				st.acked = append(st.acked, fr.Key)
			}
		case serve.FrameModule:
			mr := &ModuleResult{Name: fr.Module, Status: fr.Status, Err: fr.Error,
				Stats: fr.Stats, Diagnostics: fr.Diagnostics, Degraded: fr.Degraded}
			if fr.Object != "" {
				b, err := base64.StdEncoding.DecodeString(fr.Object)
				if err != nil {
					return false, fmt.Errorf("%w: bad object base64: %v", ErrMalformedStream, err)
				}
				mr.Object = b
			}
			st.completed[fr.Module] = mr
		case serve.FrameDone:
			sawDone = true
		default:
			return false, fmt.Errorf("%w: unknown frame type %q", ErrMalformedStream, fr.Type)
		}
		if sawDone {
			break
		}
	}
	// The done frame covers only the modules of this attempt's request;
	// with the completed-set accounting, all modules are now in.
	for _, m := range st.mods {
		if st.completed[m.Name] == nil {
			return false, fmt.Errorf("%w: done frame before module %q completed", ErrMalformedStream, m.Name)
		}
	}
	return false, nil
}
