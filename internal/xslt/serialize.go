package xslt

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/xpath"
)

// Serialize renders the stylesheet as a standalone XSLT 1.0 document,
// matching the shape of the paper's Examples 4.5 and 4.6. The emitted
// markup is for interoperability and inspection; execution uses the
// in-memory form via Run.
func (s *Stylesheet) Serialize() string {
	var b strings.Builder
	b.WriteString(`<?xml version="1.0"?>` + "\n")
	b.WriteString(`<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">` + "\n")
	for _, t := range sortTemplatesForDisplay(s.Templates) {
		fmt.Fprintf(&b, `  <xsl:template match=%q`, t.Match.String())
		if t.Mode != "" {
			fmt.Fprintf(&b, ` mode=%q`, t.Mode)
		}
		b.WriteString(">\n")
		for _, o := range t.Output {
			writeOut(&b, o, 4)
		}
		b.WriteString("  </xsl:template>\n")
	}
	b.WriteString("</xsl:stylesheet>\n")
	return b.String()
}

func writeOut(b *strings.Builder, o *Out, indent int) {
	pad := strings.Repeat(" ", indent)
	switch {
	case o.Apply != nil:
		fmt.Fprintf(b, `%s<xsl:apply-templates select=%q`, pad, xpath.String(o.Apply.Select))
		if o.Apply.Mode != "" {
			fmt.Fprintf(b, ` mode=%q`, o.Apply.Mode)
		}
		b.WriteString("/>\n")
	case o.CopyText:
		fmt.Fprintf(b, "%s<xsl:value-of select=\".\"/>\n", pad)
	case o.Label == "":
		fmt.Fprintf(b, "%s%s\n", pad, o.Text)
	default:
		if len(o.Children) == 0 {
			fmt.Fprintf(b, "%s<%s/>\n", pad, o.Label)
			return
		}
		fmt.Fprintf(b, "%s<%s>\n", pad, o.Label)
		for _, c := range o.Children {
			writeOut(b, c, indent+2)
		}
		fmt.Fprintf(b, "%s</%s>\n", pad, o.Label)
	}
}

// sortTemplatesForDisplay orders templates for stable serialization.
func sortTemplatesForDisplay(ts []*Template) []*Template {
	out := append([]*Template(nil), ts...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Mode != out[j].Mode {
			return out[i].Mode < out[j].Mode
		}
		return false
	})
	return out
}
