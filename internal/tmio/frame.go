package tmio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// The binary stream protocol: a length-prefixed, versioned frame that
// carries many StreamRecords per network write. It exists because the
// JSON-lines encoding — one reflective json.Marshal and one allocation
// per record — is the ingest hot path's bottleneck at production
// traffic; the binary frame encodes a whole batch into one pooled
// buffer with zero steady-state allocations and decodes the same way.
//
// docs/STREAM_FORMAT.md is the normative specification. Layout (all
// integers little-endian):
//
//	frame   = magic(2) version(1) reserved(1) payloadLen(u32) count(u32) payload
//	payload = count × record
//	record  = recLen(u16) v(u16) rank(i32) phase(i32) flags(u8) retries(u32)
//	          ts te b bl t tts tte (7 × f64) appLen(u16) app(appLen bytes)
//
// recLen counts every byte after itself, so a decoder that knows fewer
// fields than the writer skips the remainder — the record grows
// additively, like the JSON encoding's unknown-field tolerance. The
// frame version, by contrast, pins the layout itself: an unknown frame
// version is rejected, never guessed at.
//
// The two magic bytes can never begin a JSON line (0xB5 is not valid
// UTF-8 lead byte territory for JSON text, which starts with
// whitespace or '{'), which is what lets gateway.Server sniff the first
// bytes of a connection and fall back to the JSON-lines decode for
// producers other than TCPSink.
const (
	frameMagic0 = 0xB5
	frameMagic1 = 0x10

	// FrameVersion is the binary frame layout version. Unlike the
	// record-level StreamVersion (which only grows and is tolerated
	// upward), an unknown frame version is an error: it may re-type
	// fields or change the framing.
	FrameVersion = 1

	// FrameHeaderLen is the fixed frame header size in bytes.
	FrameHeaderLen = 12

	// MaxFramePayload bounds one frame's payload so a corrupt or hostile
	// length prefix cannot make a reader buffer gigabytes.
	MaxFramePayload = 4 << 20

	// MaxFrameRecords bounds one frame's record count.
	MaxFrameRecords = 1 << 16

	// recFixedLen is the encoded size of a record's fixed fields,
	// counted from just after the recLen prefix: v(2) + rank(4) +
	// phase(4) + flags(1) + retries(4) + 7 float64s (56) + appLen(2).
	recFixedLen = 73

	// maxRecordWire is the largest encoding one v1 record can take:
	// prefix + fixed fields + a maximal (64 KiB − 1) app identifier.
	maxRecordWire = 2 + recFixedLen + math.MaxUint16
)

// ErrFrameVersion is returned when a frame carries an unknown layout
// version. It is connection-fatal for a stream reader: the bytes that
// follow cannot be framed.
var ErrFrameVersion = errors.New("tmio: unknown binary frame version")

// SniffBinary reports whether b — the first bytes read from a stream —
// begins a binary frame rather than a JSON line. Two bytes suffice.
func SniffBinary(b []byte) bool {
	return len(b) >= 2 && b[0] == frameMagic0 && b[1] == frameMagic1
}

// FrameInfo validates a frame header and returns the payload length and
// record count that follow it. hdr must hold at least FrameHeaderLen
// bytes; extra bytes are ignored. Stream readers call this on the fixed
// header to learn how much to read before handing the whole frame to
// DecodeFrame (the single decode path).
func FrameInfo(hdr []byte) (payloadLen, count int, err error) {
	if len(hdr) < FrameHeaderLen {
		return 0, 0, fmt.Errorf("tmio: short frame header: %d bytes", len(hdr))
	}
	if hdr[0] != frameMagic0 || hdr[1] != frameMagic1 {
		return 0, 0, fmt.Errorf("tmio: bad frame magic %#02x %#02x", hdr[0], hdr[1])
	}
	if hdr[2] != FrameVersion {
		return 0, 0, fmt.Errorf("%w: %d", ErrFrameVersion, hdr[2])
	}
	payloadLen = int(binary.LittleEndian.Uint32(hdr[4:8]))
	count = int(binary.LittleEndian.Uint32(hdr[8:12]))
	if payloadLen > MaxFramePayload {
		return 0, 0, fmt.Errorf("tmio: frame payload %d exceeds limit %d", payloadLen, MaxFramePayload)
	}
	if count > MaxFrameRecords {
		return 0, 0, fmt.Errorf("tmio: frame record count %d exceeds limit %d", count, MaxFrameRecords)
	}
	// Every record costs at least its prefix plus the fixed fields; a
	// count the payload cannot possibly hold is a framing error caught
	// before any per-record work.
	if min := count * (2 + recFixedLen); min > payloadLen {
		return 0, 0, fmt.Errorf("tmio: frame count %d needs ≥ %d payload bytes, header claims %d", count, min, payloadLen)
	}
	return payloadLen, count, nil
}

// AppendFrame appends one encoded binary frame holding recs to dst and
// returns the extended slice. It fails — leaving dst's contents beyond
// its original length unspecified — when a record cannot be represented
// (rank/phase outside int32, negative or oversized retries, app name
// over 64 KiB) or the batch exceeds the frame limits; callers split
// oversized batches across frames instead.
func AppendFrame(dst []byte, recs []StreamRecord) ([]byte, error) {
	if len(recs) > MaxFrameRecords {
		return dst, fmt.Errorf("tmio: %d records exceed the %d per-frame limit", len(recs), MaxFrameRecords)
	}
	base := len(dst)
	var hdr [FrameHeaderLen]byte
	hdr[0], hdr[1], hdr[2] = frameMagic0, frameMagic1, FrameVersion
	dst = append(dst, hdr[:]...)
	for i := range recs {
		var err error
		dst, err = appendRecord(dst, &recs[i])
		if err != nil {
			return dst, err
		}
	}
	payload := len(dst) - base - FrameHeaderLen
	if payload > MaxFramePayload {
		return dst, fmt.Errorf("tmio: frame payload %d exceeds limit %d", payload, MaxFramePayload)
	}
	binary.LittleEndian.PutUint32(dst[base+4:base+8], uint32(payload))
	binary.LittleEndian.PutUint32(dst[base+8:base+12], uint32(len(recs)))
	return dst, nil
}

// appendFrames encodes batch as however many frames it needs, appended
// to dst: a frame closes when the next record would push its payload
// past MaxFramePayload (the record-count limit can never bind first —
// MaxFrameRecords minimal records already exceed the payload cap).
// TCPSink's binary flush writes the returned buffer with one syscall.
func appendFrames(dst []byte, batch []StreamRecord) ([]byte, error) {
	for len(batch) > 0 {
		n, size := 0, 0
		for n < len(batch) && n < MaxFrameRecords {
			rs := 2 + recFixedLen + len(batch[n].App)
			if n > 0 && size+rs > MaxFramePayload {
				break
			}
			size += rs
			n++
		}
		var err error
		dst, err = AppendFrame(dst, batch[:n])
		if err != nil {
			return dst, err
		}
		batch = batch[n:]
	}
	return dst, nil
}

// EncodeFrame encodes recs as one binary frame into a fresh buffer.
// Hot paths use AppendFrame with a pooled buffer instead.
func EncodeFrame(recs []StreamRecord) ([]byte, error) {
	return AppendFrame(make([]byte, 0, FrameHeaderLen+(2+recFixedLen+16)*len(recs)), recs)
}

func appendRecord(dst []byte, rec *StreamRecord) ([]byte, error) {
	if rec.Rank < math.MinInt32 || rec.Rank > math.MaxInt32 ||
		rec.Phase < math.MinInt32 || rec.Phase > math.MaxInt32 {
		return dst, fmt.Errorf("tmio: rank %d / phase %d outside the wire range", rec.Rank, rec.Phase)
	}
	if rec.Retries < 0 || rec.Retries > math.MaxUint32 {
		return dst, fmt.Errorf("tmio: retries %d outside the wire range", rec.Retries)
	}
	if rec.V < 0 || rec.V > math.MaxUint16 {
		return dst, fmt.Errorf("tmio: version %d outside the wire range", rec.V)
	}
	if len(rec.App) > math.MaxUint16 {
		return dst, fmt.Errorf("tmio: app identifier %d bytes long, limit %d", len(rec.App), math.MaxUint16)
	}
	var scratch [2 + recFixedLen]byte
	b := scratch[:]
	binary.LittleEndian.PutUint16(b[0:2], uint16(recFixedLen+len(rec.App)))
	binary.LittleEndian.PutUint16(b[2:4], uint16(rec.V))
	binary.LittleEndian.PutUint32(b[4:8], uint32(int32(rec.Rank)))
	binary.LittleEndian.PutUint32(b[8:12], uint32(int32(rec.Phase)))
	if rec.Faulty {
		b[12] = 1
	} else {
		b[12] = 0
	}
	binary.LittleEndian.PutUint32(b[13:17], uint32(rec.Retries))
	binary.LittleEndian.PutUint64(b[17:25], math.Float64bits(rec.TsSec))
	binary.LittleEndian.PutUint64(b[25:33], math.Float64bits(rec.TeSec))
	binary.LittleEndian.PutUint64(b[33:41], math.Float64bits(rec.B))
	binary.LittleEndian.PutUint64(b[41:49], math.Float64bits(rec.BL))
	binary.LittleEndian.PutUint64(b[49:57], math.Float64bits(rec.T))
	binary.LittleEndian.PutUint64(b[57:65], math.Float64bits(rec.TtsSec))
	binary.LittleEndian.PutUint64(b[65:73], math.Float64bits(rec.TteSec))
	binary.LittleEndian.PutUint16(b[73:75], uint16(len(rec.App)))
	dst = append(dst, b...)
	return append(dst, rec.App...), nil
}

// DecodeFrame parses one complete binary frame at the start of b,
// appending the decoded records to into and returning the extended
// slice plus the number of bytes consumed. It is the single binary
// decode path shared by every consumer (the gateway's frame loop,
// tests, fuzzing), mirroring DecodeStreamRecord for the JSON lines.
//
// On error the returned slice is into truncated to its original length
// — never a partially appended batch — so callers cannot ingest records
// from a rejected frame, and a reused buffer keeps its capacity.
// Decode tolerance mirrors the JSON rules: records longer than the
// fields this version knows are accepted (the excess is skipped, the
// additive-growth rule), unknown flag bits are ignored, but an unknown
// frame version, a length that disagrees with the payload, or a
// truncated buffer rejects the whole frame.
func DecodeFrame(into []StreamRecord, b []byte) ([]StreamRecord, int, error) {
	orig := len(into)
	payload, count, err := FrameInfo(b)
	if err != nil {
		return into[:orig], 0, err
	}
	total := FrameHeaderLen + payload
	if len(b) < total {
		return into[:orig], 0, fmt.Errorf("tmio: truncated frame: have %d of %d bytes", len(b), total)
	}
	off := FrameHeaderLen
	for i := 0; i < count; i++ {
		if off+2 > total {
			return into[:orig], 0, fmt.Errorf("tmio: record %d overruns the frame payload", i)
		}
		recLen := int(binary.LittleEndian.Uint16(b[off : off+2]))
		off += 2
		if recLen < recFixedLen {
			return into[:orig], 0, fmt.Errorf("tmio: record %d is %d bytes, below the v1 minimum %d", i, recLen, recFixedLen)
		}
		if off+recLen > total {
			return into[:orig], 0, fmt.Errorf("tmio: record %d overruns the frame payload", i)
		}
		r := b[off : off+recLen]
		appLen := int(binary.LittleEndian.Uint16(r[71:73]))
		if recFixedLen+appLen > recLen {
			return into[:orig], 0, fmt.Errorf("tmio: record %d app name overruns the record", i)
		}
		rec := StreamRecord{
			V:       int(binary.LittleEndian.Uint16(r[0:2])),
			Rank:    int(int32(binary.LittleEndian.Uint32(r[2:6]))),
			Phase:   int(int32(binary.LittleEndian.Uint32(r[6:10]))),
			Faulty:  r[10]&1 != 0,
			Retries: int(binary.LittleEndian.Uint32(r[11:15])),
			TsSec:   math.Float64frombits(binary.LittleEndian.Uint64(r[15:23])),
			TeSec:   math.Float64frombits(binary.LittleEndian.Uint64(r[23:31])),
			B:       math.Float64frombits(binary.LittleEndian.Uint64(r[31:39])),
			BL:      math.Float64frombits(binary.LittleEndian.Uint64(r[39:47])),
			T:       math.Float64frombits(binary.LittleEndian.Uint64(r[47:55])),
			TtsSec:  math.Float64frombits(binary.LittleEndian.Uint64(r[55:63])),
			TteSec:  math.Float64frombits(binary.LittleEndian.Uint64(r[63:71])),
			App:     internApp(r[recFixedLen : recFixedLen+appLen]),
		}
		into = append(into, rec)
		off += recLen // recLen > the known fields: a newer writer's extra bytes, skipped
	}
	if off != total {
		return into[:orig], 0, fmt.Errorf("tmio: %d payload bytes left over after %d records", total-off, count)
	}
	return into, total, nil
}

// appIntern deduplicates decoded application identifiers. A collector
// sees the same few app names millions of times; returning one shared
// string per name keeps the steady-state decode loop allocation-free.
// The table is bounded so a hostile producer cycling names cannot grow
// it without bound — past the cap, names simply allocate.
var appIntern = struct {
	sync.RWMutex
	m map[string]string
}{m: make(map[string]string)}

const (
	appInternMaxEntries = 4096
	appInternMaxLen     = 256
)

func internApp(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > appInternMaxLen {
		return string(b)
	}
	appIntern.RLock()
	s, ok := appIntern.m[string(b)] // no alloc: map lookup by converted []byte
	appIntern.RUnlock()
	if ok {
		return s
	}
	appIntern.Lock()
	defer appIntern.Unlock()
	if s, ok := appIntern.m[string(b)]; ok {
		return s
	}
	s = string(b)
	if len(appIntern.m) < appInternMaxEntries {
		appIntern.m[s] = s
	}
	return s
}

// Frame buffers are recycled through power-of-four size classes, the
// mbuf discipline: a writer grabs the smallest class that fits its
// batch, the reader grabs one per connection, and both return them when
// done, so the steady state allocates nothing and a brief burst of
// large frames does not pin large buffers behind small requests.
var frameClasses = [...]int{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, FrameHeaderLen + MaxFramePayload}

var framePools [len(frameClasses)]sync.Pool

// GetFrameBuf returns a zero-length buffer with capacity ≥ n from the
// frame pool (or a fresh one when n exceeds the largest class). Pass
// the same pointer back to PutFrameBuf when done; the pointer
// indirection is what keeps Get/Put themselves allocation-free.
func GetFrameBuf(n int) *[]byte {
	for i, class := range frameClasses {
		if n <= class {
			if p, _ := framePools[i].Get().(*[]byte); p != nil {
				*p = (*p)[:0]
				return p
			}
			b := make([]byte, 0, class)
			return &b
		}
	}
	b := make([]byte, 0, n)
	return &b
}

// PutFrameBuf returns a buffer obtained from GetFrameBuf to its size
// class. Buffers whose capacity matches no class (oversize one-offs)
// are dropped for the garbage collector.
func PutFrameBuf(p *[]byte) {
	if p == nil {
		return
	}
	for i, class := range frameClasses {
		if cap(*p) == class {
			*p = (*p)[:0]
			framePools[i].Put(p)
			return
		}
	}
}

// GrowFrameBuf ensures *p has capacity ≥ n, exchanging it through the
// pool when it must grow so the old buffer is recycled rather than
// garbage. Stream readers use it to size a per-connection buffer to
// each incoming frame.
func GrowFrameBuf(p *[]byte, n int) *[]byte {
	if cap(*p) >= n {
		return p
	}
	PutFrameBuf(p)
	return GetFrameBuf(n)
}
