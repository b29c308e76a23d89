package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"mqxgo/internal/faultinject"
	"mqxgo/internal/scratch"
)

// The JSON wire without reflection on the value arrays. A request body is
// read whole into pooled memory and decoded by json.Unmarshal, which
// refuses anything after the first JSON value; every field but values
// keeps encoding/json. A success response is printed by
// appendEvalResponse. The bytes on the wire are the ones encoding/json
// reads and writes.

// values is a request's value array. Its decoder scans canonical unsigned
// decimals straight into the slice's backing array and hands every other
// input — null, signs, fractions, exponents, overflow, nested values — to
// encoding/json's []uint64 decode, so a body is accepted, refused and
// decoded as with a plain []uint64 field, and a fault in the array gets
// that field's error.
type values []uint64

func (v *values) UnmarshalJSON(data []byte) error {
	out, ok := scanUints((*v)[:0], data)
	if !ok {
		return json.Unmarshal(data, (*[]uint64)(v))
	}
	if len(out) == 0 {
		out = values{} // encoding/json decodes [] to an empty, non-nil slice
	}
	*v = out
	return nil
}

// scanUints appends to dst the elements of data when it is a JSON array
// of unsigned decimal integers that fit 64 bits, with no sign, fraction,
// exponent or leading zero; ok is false for any other input.
func scanUints(dst values, data []byte) (out values, ok bool) {
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '[' {
		return dst, false
	}
	if i = skipSpace(data, i+1); i < len(data) && data[i] == ']' {
		return dst, skipSpace(data, i+1) == len(data)
	}
	for {
		start := i
		var x uint64
		for ; i < len(data); i++ {
			d := data[i] - '0'
			if d > 9 {
				break
			}
			x = x*10 + uint64(d)
		}
		// 19 digits always fit; 20 fit up to maxUint64Digits, which equal
		// length makes a string comparison; 21 never do.
		switch n := i - start; {
		case n == 0, n > 1 && data[start] == '0', n > 20,
			n == 20 && string(data[start:i]) > maxUint64Digits:
			return dst, false
		}
		dst = append(dst, x)
		if i = skipSpace(data, i); i == len(data) {
			return dst, false
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case ']':
			return dst, skipSpace(data, i+1) == len(data)
		default:
			return dst, false
		}
	}
}

const maxUint64Digits = "18446744073709551615"

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
}

// reqBuf is one request's pooled transport memory: the body read from the
// wire, the decoded evaluation request, the backing array of its values,
// and the printed response. A handler puts it back only after the
// response is written, since an encode or decode response prints the
// request's own values.
type reqBuf struct {
	body bytes.Buffer
	req  evalRequest
	vals []uint64
	out  []byte
}

var reqBufs = scratch.Pool[reqBuf]{
	New: func() *reqBuf { return new(reqBuf) },
	Poison: func(rb *reqBuf) {
		b := rb.body.Bytes()
		scratch.Fill(b[:cap(b)])
		scratch.Fill(rb.vals[:cap(rb.vals)])
		scratch.Fill(rb.out[:cap(rb.out)])
	},
}

// decode reads a POST body whole into rb and decodes it into into with
// json.Unmarshal: a body past the MaxBytesReader cap is a 413, any other
// read or decode failure — trailing bytes after the JSON value included —
// a 400.
func (rb *reqBuf) decode(r *http.Request, into any) *apiError {
	if r.Method != http.MethodPost {
		return errf(http.StatusMethodNotAllowed, CodeBadRequest, "use POST")
	}
	if err := faultinject.Err(faultinject.SiteServeDecode); err != nil {
		return errBadRequest("decode: %v", err)
	}
	rb.body.Reset()
	if _, err := rb.body.ReadFrom(r.Body); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return errf(http.StatusRequestEntityTooLarge, CodeBodyTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
		}
		return errBadRequest("decode: %v", err)
	}
	if err := json.Unmarshal(rb.body.Bytes(), into); err != nil {
		return errBadRequest("decode: %v", err)
	}
	return nil
}

// decodeEval decodes an evaluation-class body into rb.req, its values into
// rb's backing array. The array is zeroed first, so that a null element,
// which encoding/json skips, reads 0 as it does in fresh memory.
func (rb *reqBuf) decodeEval(r *http.Request) *apiError {
	clear(rb.vals[:cap(rb.vals)])
	rb.req = evalRequest{Values: rb.vals[:0]}
	if apiErr := rb.decode(r, &rb.req); apiErr != nil {
		return apiErr
	}
	v := rb.req.Values
	if cap(v) > cap(rb.vals) {
		rb.vals = v[:0]
	}
	if len(v) == 0 && cap(v) > 0 { // no values key: nil, as encoding/json leaves it
		rb.req.Values = nil
	}
	return nil
}

// appendEvalResponse appends resp as json.Encoder prints it: fields in
// declaration order, handle and values omitted when empty, the handle
// HTML-escaped, and a trailing newline.
func appendEvalResponse(b []byte, resp *evalResponse) []byte {
	b = append(b, '{')
	if resp.Handle != "" {
		b = append(b, `"handle":`...)
		b = appendString(b, resp.Handle)
		b = append(b, ',')
	}
	b = append(b, `"level":`...)
	b = strconv.AppendInt(b, int64(resp.Level), 10)
	b = append(b, `,"noise_bits":`...)
	b = strconv.AppendInt(b, int64(resp.NoiseBits), 10)
	b = append(b, `,"budget_bits":`...)
	b = strconv.AppendInt(b, int64(resp.BudgetBits), 10)
	if len(resp.Values) > 0 {
		b = append(b, `,"values":[`...)
		for i, x := range resp.Values {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, x, 10)
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...)
}

// appendString appends s as a JSON string. Printable ASCII other than
// the quote, the backslash and the HTML-escaped <, > and & is copied as
// is; any other string, which server-made handles never are, is quoted
// by encoding/json.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
