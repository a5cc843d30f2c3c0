package xmltree

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"txmldb/internal/model"
)

// sameTree reports the first difference between two trees: kind, name,
// value, attributes in order, XID, stamp (text nodes included) and parent
// pointers all count.
func sameTree(a, b *Node) error {
	if a.Kind != b.Kind || a.Name != b.Name || a.Value != b.Value {
		return fmt.Errorf("node %s%q vs %s%q", a.Name, a.Value, b.Name, b.Value)
	}
	if a.XID != b.XID || a.Stamp != b.Stamp {
		return fmt.Errorf("identity of %s%q: %d@%d vs %d@%d", a.Name, a.Value, a.XID, a.Stamp, b.XID, b.Stamp)
	}
	if len(a.Attrs) != len(b.Attrs) {
		return fmt.Errorf("attrs of %s: %v vs %v", a.Name, a.Attrs, b.Attrs)
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			return fmt.Errorf("attrs of %s: %v vs %v", a.Name, a.Attrs, b.Attrs)
		}
	}
	if len(a.Children) != len(b.Children) {
		return fmt.Errorf("children of %s: %d vs %d", a.Name, len(a.Children), len(b.Children))
	}
	for i := range a.Children {
		if a.Children[i].Parent != a || b.Children[i].Parent != b {
			return fmt.Errorf("parent pointer of child %d of %s", i, a.Name)
		}
		if err := sameTree(a.Children[i], b.Children[i]); err != nil {
			return err
		}
	}
	return nil
}

// checkDecode asserts the decoder's contract on one input: no panic, and
// agreement with Parse whenever Unmarshal accepts; for inputs Parse
// accepts, Marshal's output must decode to Parse's reading of it.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	if got, err := Unmarshal(data); err == nil {
		want, perr := ParseString(string(data))
		if perr != nil {
			t.Fatalf("Unmarshal accepted %q, Parse rejected it: %v", data, perr)
		}
		if got.Parent != nil {
			t.Fatalf("decoded root of %q has a parent", data)
		}
		if err := sameTree(got, want); err != nil {
			t.Fatalf("Unmarshal and Parse disagree on %q: %v", data, err)
		}
	}
	parsed, err := ParseString(string(data))
	if err != nil {
		return
	}
	stored := Marshal(parsed)
	got, err := Unmarshal(stored)
	if err != nil {
		t.Fatalf("Unmarshal(Marshal(Parse(%q))) = %q: %v", data, stored, err)
	}
	want, err := ParseString(string(stored))
	if err != nil {
		t.Fatalf("Parse(Marshal(Parse(%q))) = %q: %v", data, stored, err)
	}
	if err := sameTree(got, want); err != nil {
		t.Fatalf("round trip of %q through %q: %v", data, stored, err)
	}
}

// decodeSeeds cover the Figure 1 versions as stored, every escape Marshal
// writes, U+FFFD, adjacent and whitespace-only text, identity attributes
// and the namespaced attribute names Parse keeps as written.
var decodeSeeds = []string{
	`<guide txmldb:xid="1" txmldb:stamp="978303600000"><restaurant txmldb:xid="2" txmldb:stamp="978303600000"><name txmldb:xid="3" txmldb:stamp="978303600000" txmldb:tx="0:4:978303600000">Napoli</name><price txmldb:xid="5" txmldb:stamp="978303600000" txmldb:tx="0:6:978303600000">15</price></restaurant></guide>`,
	`<guide txmldb:xid="1" txmldb:stamp="979513200000"><restaurant txmldb:xid="2" txmldb:stamp="978303600000"><name txmldb:xid="3" txmldb:stamp="978303600000" txmldb:tx="0:4:978303600000">Napoli</name><price txmldb:xid="5" txmldb:stamp="978303600000" txmldb:tx="0:6:978303600000">15</price></restaurant><restaurant txmldb:xid="7" txmldb:stamp="979513200000"><name txmldb:xid="8" txmldb:stamp="979513200000" txmldb:tx="0:9:979513200000">Akropolis</name><price txmldb:xid="10" txmldb:stamp="979513200000" txmldb:tx="0:11:979513200000">13</price></restaurant></guide>`,
	`<guide txmldb:xid="1" txmldb:stamp="980895600000"><restaurant txmldb:xid="2" txmldb:stamp="980895600000"><name txmldb:xid="3" txmldb:stamp="978303600000" txmldb:tx="0:4:978303600000">Napoli</name><price txmldb:xid="5" txmldb:stamp="980895600000" txmldb:tx="0:6:980895600000">18</price></restaurant></guide>`,
	restaurantXML,
	`<t a="&amp;&lt;&gt;&#34;&#39;&#x9;&#xA;&#xD;">&amp;&lt;&gt;&#34;&#39;&#x9;&#xA;&#xD;</t>`,
	"<t>multi\nline</t>",
	"<t v=\"�\">�</t>",
	"<t>\x80bad utf-8</t>",
	`<t>one</t>`,
	`<t>one<!-- split -->two</t>`,
	`<t>one<![CDATA[two]]></t>`,
	`<t> <c/> &#x9; <c></c>
</t>`,
	`<t txmldb:xid="9" txmldb:stamp="-3" txmldb:tx="0:10:4 2:11:5 bogus 1:x:2"><c></c>x<d></d>y</t>`,
	`<t txmldb:xid="18446744073709551616" txmldb:stamp="+7" txmldb:tx="0:1:2:3"> z </t>`,
	`<a xml:lang="en" xmlns:p="urn:x" p:k="1" xmlns="urn:d" xmlns:txmldb="urn:t"><p:b :c="2" d:="3"></p:b></a>`,
	`<a x="1" x="2"></a>`,
	`<?xml version="1.0"?><a/>`,
	`<a></b>`,
	`<a><b></a></b>`,
	`<été à="1">ü</été>`,
	`<A:0></A:0>`,
	`<a>]]&gt;</a>`,
	"<a>\x7f\x00</a>",
}

func FuzzDecodeTree(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkDecode(t, data) })
}

func TestUnmarshalReadsWhatMarshalWrites(t *testing.T) {
	root := Elem("doc",
		ElemText("esc", "a&b<c>d\"e'f\tg\nh\ri�j\x01k"),
		Elem("empty"),
		NewText("tail"))
	root.SetAttr("quote", "say \"hi\"\n\t\r<&>'")
	root.SetAttr("xml:lang", "en")
	root.XID, root.Stamp = 1, 100
	root.Children[0].XID = 2
	root.Children[0].Children[0].XID, root.Children[0].Children[0].Stamp = 3, 5
	root.Children[2].XID = 4
	stored := Marshal(root)
	got, err := Unmarshal(stored)
	if err != nil {
		t.Fatalf("Unmarshal(%q): %v", stored, err)
	}
	want, err := ParseString(string(stored))
	if err != nil {
		t.Fatal(err)
	}
	if err := sameTree(got, want); err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Attr("quote"); v != "say \"hi\"\n\t\r<&>'" {
		t.Errorf("attribute value = %q", v)
	}
	if v := got.Children[0].Text(); v != "a&b<c>d\"e'f\tg\nh\ri�j�k" {
		t.Errorf("text = %q", v)
	}
	if got.Children[2].XID != 4 {
		t.Errorf("text identity lost: %+v", got.Children[2])
	}
}

func TestUnmarshalRejectsWhatMarshalNeverWrites(t *testing.T) {
	for _, in := range []string{
		"", " <a></a>", "<a></a> ", "<a/>", "<a ></a>", "<a x='1'></a>",
		"<a>&quot;</a>", "<a>&#65;</a>", "<a><!-- c --></a>", "<a>\t</a>",
		"<a>\r</a>", "<a>\"</a>", "<a>></a>", "<a x=\"\n\"></a>",
		"<a></a ></a>", "<a></b>", "<a>", "</a>", "<a:b:c></a:b:c>",
		"<a></a><b></b>", "<1a></1a>",
	} {
		if n, err := Unmarshal([]byte(in)); err == nil {
			t.Errorf("Unmarshal(%q) = %s, want error", in, n)
		}
	}
}

func TestUnmarshalCopiesOutOfTheBuffer(t *testing.T) {
	data := []byte(`<a k="v">text</a>`)
	root, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 'X'
	}
	if root.Name != "a" || root.Attrs[0] != (Attr{"k", "v"}) || root.Children[0].Value != "text" {
		t.Fatalf("tree changed with the buffer: %s", root)
	}
}

func TestParseKeepsNamesAsWritten(t *testing.T) {
	root := MustParse(`<a xml:lang="en" xmlns:p="urn:x" p:k="1"><p:b></p:b></a>`)
	want := []Attr{{"xml:lang", "en"}, {"xmlns:p", "urn:x"}, {"p:k", "1"}}
	if fmt.Sprint(root.Attrs) != fmt.Sprint(want) {
		t.Fatalf("attrs = %v, want %v", root.Attrs, want)
	}
	if root.Children[0].Name != "p:b" {
		t.Fatalf("element name = %q, want p:b", root.Children[0].Name)
	}
	again, err := Unmarshal(Marshal(root))
	if err != nil {
		t.Fatal(err)
	}
	if err := sameTree(root, again); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseString(`<p:a></q:a>`); err == nil || !strings.Contains(err.Error(), "closed by") {
		t.Fatalf("mismatched prefixed end tag: %v", err)
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	root := NewElement("guide")
	for i := 0; i < 200; i++ {
		r := Elem("restaurant",
			ElemText("name", fmt.Sprintf("rest-%04d", i)),
			ElemText("price", fmt.Sprint(5+i%45)),
			Elem("info", ElemText("chef", "w0001"), ElemText("specialty", "w0002 w0003")))
		r.SetAttr("cuisine", "w0004")
		root.AppendChild(r)
	}
	var x model.XID
	root.Walk(func(n *Node) bool { x++; n.XID, n.Stamp = x, 978303600000; return true })
	data := Marshal(root)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestUnmarshalConcurrent decodes from several goroutines at once: the
// pooled decoders and their intern tables must not leak state between
// calls.
func TestUnmarshalConcurrent(t *testing.T) {
	var docs [][]byte
	var want []*Node
	for _, s := range decodeSeeds {
		if n, err := Unmarshal([]byte(s)); err == nil {
			docs, want = append(docs, []byte(s)), append(want, n)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % len(docs)
				got, err := Unmarshal(docs[k])
				if err != nil {
					t.Errorf("Unmarshal(%q): %v", docs[k], err)
					return
				}
				if err := sameTree(got, want[k]); err != nil {
					t.Errorf("Unmarshal(%q): %v", docs[k], err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
