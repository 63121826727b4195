package tmio

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
)

// ErrEmptyRecord is returned by DecodeStreamRecord for blank input lines.
var ErrEmptyRecord = errors.New("tmio: empty stream record")

// DecodeStreamRecord parses one JSON line of the TMIO stream protocol,
// the encoding of producers other than TCPSink, which writes binary
// frames (DecodeFrame). It is the single JSON decode path shared by
// every consumer (the gateway's ingest loop, tests, fuzzing), so
// tolerance decisions live in one place:
//
//   - unknown fields and higher schema versions are accepted (the
//     protocol only grows; encoding/json ignores what it does not know);
//   - surrounding whitespace is trimmed;
//   - anything that is not one complete JSON object — truncated lines,
//     trailing garbage, arrays, bare literals — is an error.
//
// On error the returned record is always the zero value, never a
// partially decoded one, so callers cannot accidentally ingest fields
// from a rejected line.
func DecodeStreamRecord(line []byte) (StreamRecord, error) {
	trimmed := bytes.TrimSpace(line)
	if len(trimmed) == 0 {
		return StreamRecord{}, ErrEmptyRecord
	}
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	var rec StreamRecord
	if err := dec.Decode(&rec); err != nil {
		return StreamRecord{}, fmt.Errorf("tmio: decode stream record: %w", err)
	}
	// json.Decoder stops at the end of the first value; a second value on
	// the line (e.g. `{...}{...}` from a torn write) means the framing is
	// broken and the line cannot be trusted.
	if dec.More() {
		return StreamRecord{}, errors.New("tmio: decode stream record: trailing data after record")
	}
	return rec, nil
}
