package xmlmodel

import (
	"io"
	"sync"
)

// Marshal serializes the document as XML. When indent is negative the
// output is compact (no added whitespace); otherwise children are placed on
// their own lines indented by the given number of spaces per level. The
// DOCTYPE declaration is emitted only when doctype is non-empty; callers
// that want the internal subset inline should use dtd.MarshalDocument.
func Marshal(d *Document, indent int) string {
	if d.DocType == "" {
		return MarshalElement(d.Root, indent)
	}
	prefix := "<!DOCTYPE " + d.DocType + ">"
	if indent >= 0 {
		prefix += "\n"
	}
	return string(render(prefix, []*Element{d.Root}, indent, 0))
}

// MarshalElement serializes a single element subtree as XML.
func MarshalElement(e *Element, indent int) string {
	return string(render("", []*Element{e}, indent, 0))
}

// MarshalElements returns, exactly sized, what WriteElement writes for es as
// consecutive children level deep: a child's bytes depend on its depth alone.
func MarshalElements(es []*Element, indent, level int) []byte {
	return render("", es, indent, level)
}

// WriteElement writes what MarshalElement returns to w without building
// it: the bytes pass through a pooled buffer of fixed size that is written
// to w each time it fills. The buffer never grows, so a response in flight
// holds writeBufSize bytes whatever the size of its answer. It returns the
// first error from w.
func WriteElement(w io.Writer, e *Element, indent int) error {
	_, err := stream(w, []*Element{e}, indent, 0)
	return err
}

// WriteRuns writes what WriteElement writes for root had it the elements of
// run(0) … run(n-1) for children (its own are not looked at). A run that
// brings its bytes — kept, when not nil, is MarshalElements(es, indent, 1) —
// is one Write of them; the rest pass through the buffer.
func WriteRuns(w io.Writer, root *Element, indent, n int, run func(int) (es []*Element, kept []byte)) error {
	buf := writeBufs.Get().(*[writeBufSize]byte)
	defer writeBufs.Put(buf)
	o := emitter{buf: buf[:0], w: w}
	o.openTag(root)
	childless := true
	for i := 0; i < n; i++ {
		es, kept := run(i)
		if len(es) == 0 {
			continue
		}
		if childless && indent >= 0 {
			o.str("\n")
		}
		childless = false
		if kept == nil {
			o.elements(es, indent, 1)
		} else if o.drain(); o.err == nil {
			_, o.err = w.Write(kept)
		}
	}
	o.closeTag(root)
	if indent >= 0 {
		o.str("\n")
	}
	o.drain()
	return o.err
}

// writeBufSize is large enough that a 200 KB answer reaches the socket in
// a handful of writes and small enough to hold one per response in flight.
const writeBufSize = 32 << 10

var writeBufs = sync.Pool{New: func() any { return new([writeBufSize]byte) }}

// stream serializes es, siblings level deep, to w through a pooled buffer; it
// returns the number of bytes produced and the first error from w.
func stream(w io.Writer, es []*Element, indent, level int) (int, error) {
	buf := writeBufs.Get().(*[writeBufSize]byte)
	defer writeBufs.Put(buf)
	o := emitter{buf: buf[:0], w: w}
	o.elements(es, indent, level)
	o.drain()
	return o.drained, o.err
}

// render returns prefix followed by the serialization of es. A first pass
// only counts, so the result is one exactly-sized buffer.
func render(prefix string, es []*Element, indent, level int) []byte {
	size, _ := stream(io.Discard, es, indent, level)
	o := emitter{buf: append(make([]byte, 0, len(prefix)+size), prefix...)}
	o.elements(es, indent, level)
	return o.buf
}

// emitter is where appendXML puts bytes. With w nil they accumulate in
// buf, which grows; otherwise buf keeps its capacity and is written to w
// whenever the next byte would not fit.
type emitter struct {
	buf     []byte
	w       io.Writer
	drained int   // bytes handed to w so far
	err     error // first error from w; later output is dropped
}

func (o *emitter) drain() {
	if o.err == nil && len(o.buf) > 0 {
		_, o.err = o.w.Write(o.buf)
	}
	o.drained += len(o.buf)
	o.buf = o.buf[:0]
}

// str is small enough to inline; what does not fit is overflow's.
func (o *emitter) str(s string) {
	if len(s) > cap(o.buf)-len(o.buf) {
		o.overflow(s)
		return
	}
	o.buf = append(o.buf, s...)
}

// overflow lets a growing buffer grow; a fixed one it fills with as much of
// s as fits and drains, until the rest of s fits.
func (o *emitter) overflow(s string) {
	if o.w != nil {
		for len(s) > cap(o.buf)-len(o.buf) {
			n := cap(o.buf) - len(o.buf)
			o.buf = append(o.buf, s[:n]...)
			s = s[n:]
			o.drain()
		}
	}
	o.buf = append(o.buf, s...)
}

// escaped copies s with the markup characters replaced by entity
// references: & < > in text, and " too inside an attribute value.
func (o *emitter) escaped(s string, attr bool) {
	from := 0
	for i := 0; i < len(s); i++ {
		var ref string
		switch s[i] {
		case '&':
			ref = "&amp;"
		case '<':
			ref = "&lt;"
		case '>':
			ref = "&gt;"
		case '"':
			if !attr {
				continue
			}
			ref = "&quot;"
		default:
			continue
		}
		o.str(s[from:i])
		o.str(ref)
		from = i + 1
	}
	o.str(s[from:])
}

const spaces = "                                                                "

func (o *emitter) pad(n int) {
	for ; n > len(spaces); n -= len(spaces) {
		o.str(spaces)
	}
	if n > 0 {
		o.str(spaces[:n])
	}
}

// elements emits es as siblings level deep, a whole serialization at level
// 0. Indented, each ends its line; compact output has no newline anywhere.
func (o *emitter) elements(es []*Element, indent, level int) {
	for _, e := range es {
		o.appendXML(e, indent, level)
		if indent >= 0 {
			o.str("\n")
		}
	}
}

// appendXML emits e's subtree; it is the one place that knows what a
// serialized element looks like. A negative indent is compact output,
// otherwise each child sits on its own line, indent spaces per level deep.
func (o *emitter) appendXML(e *Element, indent, level int) {
	o.pad(indent * level)
	o.openTag(e)
	switch {
	case e.IsText:
		o.escaped(e.Text, false)
	case len(e.Children) > 0:
		if indent >= 0 {
			o.str("\n")
		}
		o.elements(e.Children, indent, level+1)
		o.pad(indent * level)
	}
	o.closeTag(e)
}

// openTag and closeTag are appendXML's, apart for WriteRuns.
func (o *emitter) openTag(e *Element) {
	o.str("<")
	o.str(e.Name)
	if e.ID != "" {
		o.str(` id="`)
		o.escaped(e.ID, true)
		o.str(`"`)
	}
	o.str(">")
}

func (o *emitter) closeTag(e *Element) {
	o.str("</")
	o.str(e.Name)
	o.str(">")
}
