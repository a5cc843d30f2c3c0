package xmltree

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"

	"txmldb/internal/model"
)

// xidAttr is the reserved attribute name used to persist XIDs when a tree is
// serialized for storage. It is stripped again on parse.
const xidAttr = "txmldb:xid"

// stampAttr persists element timestamps in storage serializations.
const stampAttr = "txmldb:stamp"

// textXIDAttr persists the identities of an element's text children, which
// have no attributes of their own: a space-separated list of
// childIndex:xid:stamp triples.
const textXIDAttr = "txmldb:tx"

// Parse reads one XML document from r and returns its root element.
// Character data consisting only of whitespace between elements is dropped;
// other character data becomes text nodes. Comments, processing instructions
// and directives are skipped. Element and attribute names are kept as
// written (p:item, xml:lang, xmlns:p): the data model has no namespaces,
// and a resolved or stripped name is not always one Marshal can write back
// (<p:0> has no valid local name). Attributes named txmldb:xid,
// txmldb:stamp and txmldb:tx are interpreted as persisted identity and
// removed from the visible attributes.
func Parse(r io.Reader) (*Node, error) {
	dec := xml.NewDecoder(r)
	var root *Node
	var stack []*Node
	pendingTX := make(map[*Node]string)
	for {
		tok, err := dec.RawToken()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := NewElement(rawName(t.Name))
			for _, a := range t.Attr {
				name := rawName(a.Name)
				switch name {
				case xidAttr:
					if v, err := strconv.ParseUint(a.Value, 10, 64); err == nil {
						n.XID = model.XID(v)
					}
				case stampAttr:
					if v, err := strconv.ParseInt(a.Value, 10, 64); err == nil {
						n.Stamp = model.Time(v)
					}
				case textXIDAttr:
					pendingTX[n] = a.Value
				case "xmlns", "xmlns:txmldb":
					// Namespace declarations introduced by serialization.
				default:
					n.Attrs = append(n.Attrs, Attr{Name: name, Value: a.Value})
				}
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xmltree: parse: multiple root elements")
				}
				root = n
			} else {
				stack[len(stack)-1].AppendChild(n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: parse: unbalanced end element %q", rawName(t.Name))
			}
			// RawToken leaves end-tag matching to the caller.
			closed := stack[len(stack)-1]
			if name := rawName(t.Name); name != closed.Name {
				return nil, fmt.Errorf("xmltree: parse: element <%s> closed by </%s>", closed.Name, name)
			}
			if tx, ok := pendingTX[closed]; ok {
				applyTextIdentities(closed, tx)
				delete(pendingTX, closed)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			text := string(t)
			if strings.TrimSpace(text) == "" {
				continue
			}
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: parse: character data outside root element")
			}
			parent := stack[len(stack)-1]
			// Merge adjacent character data (entity boundaries etc.).
			if nc := len(parent.Children); nc > 0 && parent.Children[nc-1].IsText() {
				parent.Children[nc-1].Value += text
			} else {
				parent.AppendChild(NewText(text))
			}
		case xml.Comment, xml.ProcInst, xml.Directive:
			// Not part of the data model.
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmltree: parse: empty document")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: parse: unclosed element %q", stack[len(stack)-1].Name)
	}
	return root, nil
}

// rawName renders an unresolved name as written in the document.
func rawName(n xml.Name) string {
	if n.Space == "" {
		return n.Local
	}
	return n.Space + ":" + n.Local
}

// applyTextIdentities decodes a txmldb:tx attribute ("idx:xid:stamp ...")
// and assigns the identities to the element's text children by position.
// Malformed entries are skipped. It works on substrings of tx and so does
// not allocate.
func applyTextIdentities(n *Node, tx string) {
	for rest := tx; rest != ""; {
		rest = strings.TrimLeftFunc(rest, unicode.IsSpace)
		end := strings.IndexFunc(rest, unicode.IsSpace)
		if end < 0 {
			end = len(rest)
		}
		entry := rest[:end]
		rest = rest[end:]
		idxStr, tail, ok1 := strings.Cut(entry, ":")
		xidStr, stampStr, ok2 := strings.Cut(tail, ":")
		if !ok1 || !ok2 || strings.Contains(stampStr, ":") {
			continue
		}
		idx, err1 := strconv.Atoi(idxStr)
		xid, err2 := strconv.ParseUint(xidStr, 10, 64)
		stamp, err3 := strconv.ParseInt(stampStr, 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			continue
		}
		if idx >= 0 && idx < len(n.Children) && n.Children[idx].IsText() {
			n.Children[idx].XID = model.XID(xid)
			n.Children[idx].Stamp = model.Time(stamp)
		}
	}
}

// ParseString parses an XML document held in a string.
func ParseString(s string) (*Node, error) { return Parse(strings.NewReader(s)) }

// MustParse parses s and panics on error; intended for tests and examples.
func MustParse(s string) *Node {
	n, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return n
}

// SerializeOptions controls Serialize.
type SerializeOptions struct {
	// Indent pretty-prints with two-space indentation when true.
	Indent bool
	// Identity emits txmldb:xid and txmldb:stamp attributes so that the
	// persistent identity survives a round trip through storage.
	Identity bool
}

// Serialize writes the subtree rooted at n as XML to w.
func Serialize(w io.Writer, n *Node, opts SerializeOptions) error {
	enc := xml.NewEncoder(w)
	if opts.Indent {
		enc.Indent("", "  ")
	}
	if err := encodeNode(enc, n, opts); err != nil {
		return fmt.Errorf("xmltree: serialize: %w", err)
	}
	if err := enc.Flush(); err != nil {
		return fmt.Errorf("xmltree: serialize: %w", err)
	}
	return nil
}

func encodeNode(enc *xml.Encoder, n *Node, opts SerializeOptions) error {
	switch n.Kind {
	case Text:
		return enc.EncodeToken(xml.CharData(n.Value))
	case Element:
		start := xml.StartElement{Name: xml.Name{Local: n.Name}}
		for _, a := range n.Attrs {
			start.Attr = append(start.Attr, xml.Attr{Name: xml.Name{Local: a.Name}, Value: a.Value})
		}
		if opts.Identity {
			if n.XID != 0 {
				start.Attr = append(start.Attr, xml.Attr{
					Name: xml.Name{Local: xidAttr}, Value: strconv.FormatUint(uint64(n.XID), 10),
				})
			}
			if n.Stamp != 0 {
				start.Attr = append(start.Attr, xml.Attr{
					Name: xml.Name{Local: stampAttr}, Value: strconv.FormatInt(int64(n.Stamp), 10),
				})
			}
			if tx := textIdentities(n); tx != "" {
				start.Attr = append(start.Attr, xml.Attr{
					Name: xml.Name{Local: textXIDAttr}, Value: tx,
				})
			}
		}
		if err := enc.EncodeToken(start); err != nil {
			return err
		}
		for _, c := range n.Children {
			if err := encodeNode(enc, c, opts); err != nil {
				return err
			}
		}
		return enc.EncodeToken(xml.EndElement{Name: start.Name})
	default:
		return fmt.Errorf("unknown node kind %d", n.Kind)
	}
}

// textIdentities encodes the identities of n's text children as
// "idx:xid:stamp" fields, or "" when none carry an identity.
func textIdentities(n *Node) string {
	var b strings.Builder
	for i, c := range n.Children {
		if !c.IsText() || (c.XID == 0 && c.Stamp == 0) {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d:%d", i, uint64(c.XID), int64(c.Stamp))
	}
	return b.String()
}

// String renders the subtree compactly (no indentation, no identity
// attributes), mainly for tests, examples and error messages.
func (n *Node) String() string {
	var b strings.Builder
	if err := Serialize(&b, n, SerializeOptions{}); err != nil {
		return fmt.Sprintf("<!serialize error: %v>", err)
	}
	return b.String()
}

// Pretty renders the subtree with indentation.
func (n *Node) Pretty() string {
	var b strings.Builder
	if err := Serialize(&b, n, SerializeOptions{Indent: true}); err != nil {
		return fmt.Sprintf("<!serialize error: %v>", err)
	}
	return b.String()
}

// Marshal renders the subtree for storage, preserving XIDs and stamps.
func Marshal(n *Node) []byte {
	var b strings.Builder
	if err := Serialize(&b, n, SerializeOptions{Identity: true}); err != nil {
		panic(err) // in-memory serialization of a valid tree cannot fail
	}
	return []byte(b.String())
}
