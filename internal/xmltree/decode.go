package xmltree

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"unicode/utf8"

	"txmldb/internal/model"
)

// Unmarshal decodes a storage serialization produced by Marshal in one pass
// over data. It reads exactly the subset of XML that Marshal writes: start
// tags with double-quoted attributes separated by single spaces, end tags,
// character data, and the escapes encoding/xml emits (&amp; &lt; &gt; &#34;
// &#39; &#x9; &#xA; &#xD;). Anything else — a declaration, comment, CDATA
// section, self-closing tag, other entity, literal tab or carriage return,
// or whitespace around the root — is an error. On every input it accepts it
// builds the same tree as Parse (FuzzDecodeTree checks this).
//
// Names and values are copied out of data, so the tree never keeps the
// caller's buffer alive. Names are interned: equal ones share one
// immutable string, also across calls.
func Unmarshal(data []byte) (*Node, error) {
	d := decoders.Get().(*decoder)
	defer d.release()
	d.data, d.pos = data, 0
	root, err := d.document()
	if err != nil {
		return nil, fmt.Errorf("xmltree: unmarshal: %w at offset %d", err, d.pos)
	}
	return root, nil
}

// decoders recycles decoder scratch space and intern tables between calls.
var decoders = sync.Pool{New: func() any { return new(decoder) }}

// maxInterned bounds the names a pooled decoder keeps.
const maxInterned = 4096

// decoder is the state of one Unmarshal call.
type decoder struct {
	data  []byte
	pos   int
	buf   []byte            // unescaped character data of the current run
	names map[string]string // valid names seen before
	open  []openElem        // elements whose end tag is pending, root first
	kids  []*Node           // children of the open elements, stacked
	attrs []Attr            // attributes of the start tag being read
}

type openElem struct {
	node *Node
	kids int    // offset in decoder.kids of this element's first child
	tx   string // txmldb:tx value, applied once the children are known
}

// release drops the decoder's references into the decoded tree and the
// caller's buffer and returns it to the pool.
func (d *decoder) release() {
	clear(d.kids[:cap(d.kids)])
	clear(d.open[:cap(d.open)])
	clear(d.attrs[:cap(d.attrs)])
	d.data, d.kids, d.open, d.attrs = nil, d.kids[:0], d.open[:0], d.attrs[:0]
	if len(d.names) > maxInterned { // only odd inputs have that many
		d.names = nil
	}
	decoders.Put(d)
}

func (d *decoder) document() (*Node, error) {
	if len(d.data) == 0 || d.data[0] != '<' {
		return nil, fmt.Errorf("document does not start with a tag")
	}
	for d.pos < len(d.data) {
		if d.data[d.pos] != '<' {
			if err := d.charData(); err != nil {
				return nil, err
			}
			continue
		}
		if d.pos+1 < len(d.data) && d.data[d.pos+1] == '/' {
			root, err := d.endTag()
			if err != nil || root != nil {
				return root, err
			}
			continue
		}
		if err := d.startTag(); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("unexpected end of input")
}

// startTag reads <name attr="value" ...> and opens the element.
func (d *decoder) startTag() error {
	d.pos++ // '<'
	tag, err := d.name()
	if err != nil {
		return err
	}
	n := &Node{Kind: Element, Name: tag}
	var tx string
	d.attrs = d.attrs[:0]
	for {
		if d.pos >= len(d.data) {
			return fmt.Errorf("unexpected end of input in start tag <%s>", tag)
		}
		c := d.data[d.pos]
		d.pos++
		if c == '>' {
			break
		}
		if c != ' ' {
			return fmt.Errorf("unexpected %q in start tag <%s>", c, tag)
		}
		name, err := d.name()
		if err != nil {
			return err
		}
		if !bytes.HasPrefix(d.data[d.pos:], []byte(`="`)) {
			return fmt.Errorf("attribute %s without =\"", name)
		}
		d.pos += 2
		value, err := d.text('"')
		if err != nil {
			return err
		}
		d.pos++ // closing quote
		// The same interpretation as Parse.
		switch name {
		case xidAttr:
			if v, err := strconv.ParseUint(string(value), 10, 64); err == nil {
				n.XID = model.XID(v)
			}
		case stampAttr:
			if v, err := strconv.ParseInt(string(value), 10, 64); err == nil {
				n.Stamp = model.Time(v)
			}
		case textXIDAttr:
			tx = string(value)
		case "xmlns", "xmlns:txmldb":
		default:
			d.attrs = append(d.attrs, Attr{Name: name, Value: string(value)})
		}
	}
	if len(d.attrs) > 0 {
		n.Attrs = append(make([]Attr, 0, len(d.attrs)), d.attrs...)
	}
	if len(d.open) > 0 {
		n.Parent = d.open[len(d.open)-1].node
		d.kids = append(d.kids, n)
	}
	d.open = append(d.open, openElem{node: n, kids: len(d.kids), tx: tx})
	return nil
}

// endTag reads </name>, closes the innermost open element and returns the
// root once it closes, which must be at the end of the input.
func (d *decoder) endTag() (*Node, error) {
	d.pos += 2 // "</"
	start := d.pos
	for d.pos < len(d.data) && d.data[d.pos] != '>' {
		d.pos++
	}
	if d.pos >= len(d.data) {
		return nil, fmt.Errorf("unexpected end of input in end tag")
	}
	if len(d.open) == 0 {
		return nil, fmt.Errorf("end tag without start tag")
	}
	top := d.open[len(d.open)-1]
	if string(d.data[start:d.pos]) != top.node.Name {
		return nil, fmt.Errorf("element <%s> closed by </%s>", top.node.Name, d.data[start:d.pos])
	}
	d.pos++ // '>'
	n := top.node
	if k := len(d.kids) - top.kids; k > 0 {
		n.Children = append(make([]*Node, 0, k), d.kids[top.kids:]...)
		d.kids = d.kids[:top.kids]
	}
	if top.tx != "" {
		applyTextIdentities(n, top.tx)
	}
	d.open = d.open[:len(d.open)-1]
	if len(d.open) > 0 {
		return nil, nil
	}
	if d.pos != len(d.data) {
		return nil, fmt.Errorf("data after the root element")
	}
	return n, nil
}

// charData reads the character data up to the next tag. Like Parse, it
// drops runs that are only whitespace.
func (d *decoder) charData() error {
	if len(d.open) == 0 {
		return fmt.Errorf("character data outside the root element")
	}
	text, err := d.text('<')
	if err != nil {
		return err
	}
	if len(bytes.TrimSpace(text)) == 0 {
		return nil
	}
	d.kids = append(d.kids, &Node{Kind: Text, Value: string(text), Parent: d.open[len(d.open)-1].node})
	return nil
}

// name reads an XML name and returns it interned. Like encoding/xml it
// takes every byte that is an ASCII name byte or non-ASCII, then checks the
// runes, and it rejects names with more than one colon.
func (d *decoder) name() (string, error) {
	start := d.pos
	for d.pos < len(d.data) {
		if c := d.data[d.pos]; c < utf8.RuneSelf && !isNameByte(c) {
			break
		}
		d.pos++
	}
	b := d.data[start:d.pos]
	if s, ok := d.names[string(b)]; ok {
		return s, nil
	}
	if !isName(b) || bytes.Count(b, []byte{':'}) > 1 {
		return "", fmt.Errorf("invalid name %q", b)
	}
	if d.names == nil {
		d.names = make(map[string]string, 64)
	}
	s := string(b)
	d.names[s] = s
	return s, nil
}

// escapes are the character references Marshal writes, and what they
// stand for.
var escapes = [...]struct {
	ref string
	c   byte
}{
	{"&amp;", '&'}, {"&lt;", '<'}, {"&gt;", '>'}, {"&#34;", '"'},
	{"&#39;", '\''}, {"&#x9;", '\t'}, {"&#xA;", '\n'}, {"&#xD;", '\r'},
}

// text reads character data up to the stop byte ('<' for element content,
// '"' for an attribute value) and returns it unescaped. The result aliases
// data or d.buf and is valid until the next call. A literal newline is
// allowed in element content only, because Marshal escapes it in
// attributes.
func (d *decoder) text(stop byte) ([]byte, error) {
	start, seg := d.pos, d.pos
	d.buf = d.buf[:0]
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		switch {
		case c == stop:
			if seg == start {
				return d.data[start:d.pos], nil
			}
			d.buf = append(d.buf, d.data[seg:d.pos]...)
			return d.buf, nil
		case c == '&':
			d.buf = append(d.buf, d.data[seg:d.pos]...)
			ref, ok := d.escape()
			if !ok {
				return nil, fmt.Errorf("unsupported character reference")
			}
			d.buf = append(d.buf, ref)
			seg = d.pos
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(d.data[d.pos:])
			if r == utf8.RuneError && size == 1 || !isInCharacterRange(r) {
				return nil, fmt.Errorf("invalid character")
			}
			d.pos += size
		case c >= 0x20 && c != '<' && c != '>' && c != '"' && c != '\'' || c == '\n' && stop == '<':
			d.pos++
		default:
			return nil, fmt.Errorf("unescaped %q", c)
		}
	}
	return nil, fmt.Errorf("unexpected end of input")
}

// escape consumes one of the character references Marshal writes.
func (d *decoder) escape() (byte, bool) {
	rest := d.data[d.pos:]
	for _, e := range escapes {
		if len(rest) >= len(e.ref) && string(rest[:len(e.ref)]) == e.ref {
			d.pos += len(e.ref)
			return e.c, true
		}
	}
	return 0, false
}

// isInCharacterRange reports whether r is an XML Char (XML 1.0 §2.2), the
// check encoding/xml applies to character data.
func isInCharacterRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}
