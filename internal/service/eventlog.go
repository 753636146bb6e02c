package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
)

// EventLog is a job's event stream as it is served, kept by a node's Job
// and by the router's routed job: each event's NDJSON line, encoded once
// and never rewritten, and the offset at which each line starts. Its owner
// guards it with the lock that guards the job's state, so no reader sees a
// terminal state without the "end" event that came with it.
type EventLog struct {
	buf    []byte
	starts []int
	// more, closed by the next append, is made only when a reader has read
	// everything, so an append that no one waits for allocates none.
	more chan struct{}
}

// Len returns the number of events in the log.
func (l *EventLog) Len() int { return len(l.starts) }

// Append sets e.Seq to the log's length and appends exactly what
// encoding/json writes for e: directly for a plain "round" event (see
// appendRound), through json.Marshal for any other. An event that does not
// encode, one whose checkpoint holds a NaN or an infinity, is not appended.
func (l *EventLog) Append(e *Event) error {
	e.Seq = len(l.starts)
	buf, ok := appendRound(l.buf, e)
	if !ok {
		line, err := json.Marshal(*e) // a copy, so that e does not escape
		if err != nil {
			return err
		}
		buf = append(l.buf, line...)
	}
	l.push(buf)
	return nil
}

// Relay appends AppendRelayedRound's splice of line, a node's "round"
// event, with Seq set to the log's length and Node to node. It reports
// false, appending nothing, when line must be decoded instead.
func (l *EventLog) Relay(line []byte, node string) bool {
	buf, ok := AppendRelayedRound(l.buf, line, len(l.starts), node)
	if ok {
		l.push(buf)
	}
	return ok
}

// push ends the line just written at the tail of buf and wakes waiters.
func (l *EventLog) push(buf []byte) {
	l.starts = append(l.starts, len(l.buf))
	l.buf = append(buf, '\n')
	if l.more != nil {
		close(l.more)
		l.more = nil
	}
}

// Since returns the lines of the events from seq on, which a reader may
// write out after its owner unlocks, and how many there are; when there
// are none, it returns instead a channel that the next append closes.
func (l *EventLog) Since(seq int) ([]byte, int, <-chan struct{}) {
	seq = max(seq, 0)
	if seq >= len(l.starts) {
		if l.more == nil {
			l.more = make(chan struct{})
		}
		return nil, 0, l.more
	}
	end := len(l.buf)
	return l.buf[l.starts[seq]:end:end], len(l.starts) - seq, nil
}

// ServeEvents serves GET /v1/jobs/{id}/events on node and router through
// since, the job's EventsSince: NDJSON from event ?from=N on (0 without
// it), following the job until it is terminal and read to the end or the
// client goes. What was appended since the last write goes out in one
// write and one flush, so a curl reader sees rounds as they happen.
func ServeEvents(w http.ResponseWriter, r *http.Request, since func(from int) ([]byte, int, <-chan struct{}, State)) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	next, err := strconv.Atoi(r.URL.Query().Get("from"))
	if err != nil || next < 0 {
		next = 0
	}
	for {
		lines, n, more, state := since(next)
		if n > 0 {
			if _, err := w.Write(lines); err != nil {
				return // client gone
			}
			rc.Flush()
			next += n
			continue
		}
		if state.Terminal() { // read with the events: "end" is written
			return
		}
		select {
		case <-more:
		case <-r.Context().Done():
			return
		}
	}
}

// roundKeys are the keys encoding/json writes for a "round" event that sets
// no other fields, in Event's field order. It always writes t_ms, and each
// of the others only when it is non-zero.
var roundKeys = [...]string{"t_ms", "round", "steps", "messages", "active", "halted", "dropped", "crashed", "instance"}

// roundHead and roundKind are what encoding/json writes for a "round"
// event before its Seq and between its Seq and t_ms.
const roundHead, roundKind = `{"seq":`, `,"kind":"round"`

// appendRound appends to dst what encoding/json writes for e, without the
// newline, when e is a "round" event that sets nothing but Seq and the
// fields of roundKeys: the form AppendRelayedRound parses. It reports
// false, leaving dst unchanged, for any other event.
func appendRound(dst []byte, e *Event) ([]byte, bool) {
	if e.Kind != "round" || e.Attempt != 0 || e.BackoffMS != 0 || e.CacheHit || e.State != "" ||
		e.Err != "" || e.Stack != "" || e.Node != "" || e.Peer || e.Resumed || e.Checkpoint != nil ||
		e.Trace != "" || e.QueueMS != 0 || e.RunMS != 0 || e.Flight != nil || e.FlightTotal != 0 {
		return dst, false
	}
	vals := [len(roundKeys)]int64{e.TimeMS, int64(e.Round), int64(e.Steps), int64(e.Messages),
		int64(e.Active), int64(e.Halted), int64(e.Dropped), int64(e.Crashed), int64(e.Instance)}
	dst = append(dst, roundHead...)
	dst = strconv.AppendInt(dst, int64(e.Seq), 10)
	dst = append(dst, roundKind...)
	for i, v := range vals {
		if i == 0 || v != 0 {
			dst = append(dst, ',', '"')
			dst = append(dst, roundKeys[i]...)
			dst = append(dst, '"', ':')
			dst = strconv.AppendInt(dst, v, 10)
		}
	}
	return append(dst, '}'), true
}

// intDigits is the most digits an integer may have for AppendRelayedRound
// to pass it through: 3/10 < log10(2), so every such number fits in an int
// and decoding it could not have failed.
const intDigits = (strconv.IntSize - 1) * 3 / 10

// AppendRelayedRound appends to dst the line a router relays for line, a
// node's NDJSON event, without decoding it: line's bytes with Seq set to
// seq and Node to node. The result is exactly what encoding/json writes
// for the decoded event after those two assignments, without the newline.
// It reports false, leaving dst unchanged, when line is not exactly what
// encoding/json writes for a "round" event that sets nothing but Seq and
// the fields of roundKeys, or holds a number of more than intDigits
// digits: the caller then decodes the line instead.
func AppendRelayedRound(dst, line []byte, seq int, node string) ([]byte, bool) {
	rest, ok := bytes.CutPrefix(line, []byte(roundHead))
	if ok {
		rest, ok = cutInt(rest, true)
	}
	if ok {
		rest, ok = bytes.CutPrefix(rest, []byte(roundKind))
	}
	if !ok {
		return dst, false
	}
	fields := rest
	for i, key := range roundKeys {
		val, found := cutKey(rest, key)
		if !found {
			if i == 0 {
				return dst, false
			}
			continue
		}
		if rest, ok = cutInt(val, i == 0); !ok {
			return dst, false
		}
	}
	if len(rest) != 1 || rest[0] != '}' {
		return dst, false
	}
	dst = append(dst, roundHead...)
	dst = strconv.AppendInt(dst, int64(seq), 10)
	dst = append(dst, roundKind...)
	dst = append(dst, fields[:len(fields)-1]...)
	if node != "" {
		dst = append(dst, `,"node":`...)
		dst = appendJSONString(dst, node)
	}
	return append(dst, '}'), true
}

// cutKey cuts `,"key":` from the front of b.
func cutKey(b []byte, key string) ([]byte, bool) {
	n := len(key)
	if len(b) < n+4 || b[0] != ',' || b[1] != '"' || string(b[2:2+n]) != key || b[2+n] != '"' || b[3+n] != ':' {
		return b, false
	}
	return b[n+4:], true
}

// cutInt cuts a non-negative integer of at most intDigits digits, written
// as encoding/json writes it, from the front of b. Zero, the one number
// with a leading zero, is accepted only when zeroOK.
func cutInt(b []byte, zeroOK bool) ([]byte, bool) {
	if len(b) > 0 && b[0] == '0' {
		return b[1:], zeroOK
	}
	n := 0
	for n < len(b) && n <= intDigits && '0' <= b[n] && b[n] <= '9' {
		n++
	}
	return b[n:], n > 0 && n <= intDigits
}

// appendJSONString appends s as encoding/json writes a string. Printable
// ASCII that encoding/json does not escape is copied; anything else takes
// json.Marshal, so the escaping rules stay encoding/json's own.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always encodes
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
