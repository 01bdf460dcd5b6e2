package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"

	"repro/internal/metrics"
)

// Handler exposes the service over HTTP:
//
//	POST /map          — body: Request JSON, reply Response JSON; or, with a
//	                     "patterns" array, BatchRequest JSON → BatchResponse
//	                     JSON (N patterns mapped against one topology build)
//	GET  /metrics      — every counter, gauge and histogram: the process
//	                     default registry merged with the service registry,
//	                     in the Prometheus text format
//	GET  /healthz      — liveness probe
//	GET  /readyz       — readiness probe; 503 once the pool queue reaches
//	                     the shedding threshold (2x Config.Workers)
//
// Invalid requests answer 400 with {"error": "..."}, and a forward hop from
// another model epoch 409; a deadline never turns into an error status — it
// degrades inside a 200 response.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/map", s.handleMap)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"ok":true}` + "\n"))
	})
	mux.HandleFunc("/readyz", s.handleReadyz)
	return mux
}

// maxMapBody bounds a /map request body; a 1024-pattern batch of explicit
// graphs fits comfortably.
const maxMapBody = 64 << 20

func (s *Service) handleMap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxMapBody))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	req, breq, err := decodeMap(body)
	if err == nil && breq != nil {
		var resp *BatchResponse
		if resp, err = s.ComputeBatch(r.Context(), breq); err == nil {
			writeReply(w, resp.appendJSON(make([]byte, 0, resp.replyCap())))
			return
		}
	} else if err == nil {
		var resp *Response
		if resp, err = s.Compute(r.Context(), req); err == nil {
			writeReply(w, resp.appendJSON(make([]byte, 0, resp.replyCap())))
			return
		}
	}
	if errors.Is(err, errOtherEpoch) {
		httpError(w, http.StatusConflict, err)
		return
	}
	httpError(w, http.StatusBadRequest, err)
}

// decodeMap decodes a /map body. A "patterns" array selects the batch shape;
// either way the chosen shape decodes strictly, so misspelled fields — and
// "forwarded" on a single request — answer 400.
func decodeMap(body []byte) (*Request, *BatchRequest, error) {
	var probe struct {
		Patterns json.RawMessage `json:"patterns"`
	}
	if json.Unmarshal(body, &probe) == nil && probe.Patterns != nil {
		breq := new(BatchRequest)
		return nil, breq, strictUnmarshal(body, breq)
	}
	req := new(Request)
	return req, nil, strictUnmarshal(body, req)
}

// strictUnmarshal decodes exactly one JSON value into v: unknown fields and
// anything but whitespace after the value are errors.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n"); len(rest) != 0 {
		return errors.New("service: data after the request's JSON value")
	}
	return nil
}

// Reply encoding. encoding/json runs once per base response, in seal; a
// /map reply is that encoding with the per-request fields written over its
// end, byte-identical to json.Marshal of the stamped response.

// baseSuffix ends every base response's encoding: the per-request fields at
// their zero values, Trace omitted.
const baseSuffix = `"cached":false,"elapsed_us":0}`

// seal makes r a base response: it records r's compact encoding. r must
// carry no per-request fields and must not be shared yet.
func (r *Response) seal() error {
	body, err := json.Marshal(r)
	r.body = body
	return err
}

// replyCap bounds appendJSON's output for an untraced response.
func (r *Response) replyCap() int { return len(r.body) + 32 }

// appendJSON appends the reply encoding of r, a stamped copy of a sealed
// base response.
func (r *Response) appendJSON(dst []byte) []byte {
	dst = append(dst, r.body[:len(r.body)-len(baseSuffix)]...)
	dst = append(dst, `"cached":`...)
	dst = strconv.AppendBool(dst, r.Cached)
	dst = append(dst, `,"elapsed_us":`...)
	dst = strconv.AppendInt(dst, r.ElapsedMicros, 10)
	if len(r.Trace) > 0 {
		trace, _ := json.Marshal(r.Trace) // names and integers: cannot fail
		dst = append(append(dst, `,"trace":`...), trace...)
	}
	return append(dst, '}')
}

func (b *BatchResponse) replyCap() int {
	n := 64
	for _, r := range b.Responses {
		n += r.replyCap() + 1
	}
	return n
}

// appendJSON appends the reply encoding of b, each item as Response.appendJSON
// writes it.
func (b *BatchResponse) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"responses":[`...)
	for i, r := range b.Responses {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = r.appendJSON(dst)
	}
	dst = append(dst, `],"elapsed_us":`...)
	dst = strconv.AppendInt(dst, b.ElapsedMicros, 10)
	return append(dst, '}')
}

// writeReply writes a /map reply in one Write, newline-terminated as
// json.Encoder terminates the diagnostic endpoints' replies.
func writeReply(w http.ResponseWriter, body []byte) {
	body = append(body, '\n')
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	metrics.WritePrometheus(w, metrics.Default, s.stats.reg)
}

func (s *Service) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	ready := s.Ready()
	status := http.StatusOK
	if !ready.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, ready)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
