package sdtd

import (
	"fmt"
	"strings"

	"repro/internal/dtd"
	"repro/internal/regex"
)

// Parse parses the textual form produced by SDTD.String: a DOCTYPE-like
// declaration whose element names and content models may carry ^tag
// specialization markers, e.g.
//
//	<!DOCTYPE withJournals [
//	  <!ELEMENT professor (firstName, publication^1, publication*)>
//	  <!ELEMENT publication^1 (title, journal)>
//	  ...
//	]>
//
// This makes s-DTDs a first-class exchange format: a stacked mediator can
// consume the specialized view DTD of a lower mediator, not only the
// merged plain DTD.
func Parse(input string) (*SDTD, error) {
	s := strings.TrimSpace(input)
	if !strings.HasPrefix(s, "<!DOCTYPE") {
		return nil, fmt.Errorf("sdtd: input does not start with <!DOCTYPE")
	}
	s = strings.TrimPrefix(s, "<!DOCTYPE")
	s = strings.TrimLeft(s, " \t\r\n")
	i := 0
	for i < len(s) && !strings.ContainsRune(" \t\r\n[>", rune(s[i])) {
		i++
	}
	rootTok := s[:i]
	if rootTok == "" {
		return nil, fmt.Errorf("sdtd: missing document type name")
	}
	var models regex.Parser // one for the document: its atoms are shared
	root, err := parseTaggedName(&models, rootTok)
	if err != nil {
		return nil, err
	}
	s = s[i:]
	open := strings.IndexByte(s, '[')
	if open < 0 {
		return New(root), nil
	}
	closeIdx := strings.LastIndexByte(s, ']')
	if closeIdx < open {
		return nil, fmt.Errorf("sdtd: unterminated internal subset")
	}
	out := New(root)
	rest := s[open+1 : closeIdx]
	for {
		rest = strings.TrimLeft(rest, " \t\r\n")
		if rest == "" {
			break
		}
		if strings.HasPrefix(rest, "<!--") {
			end := strings.Index(rest, "-->")
			if end < 0 {
				break
			}
			rest = rest[end+3:]
			continue
		}
		if !strings.HasPrefix(rest, "<!ELEMENT") {
			return nil, fmt.Errorf("sdtd: unexpected content: %.40q", rest)
		}
		end := strings.IndexByte(rest, '>')
		if end < 0 {
			return nil, fmt.Errorf("sdtd: unterminated declaration")
		}
		decl := strings.TrimSpace(strings.TrimPrefix(rest[:end], "<!ELEMENT"))
		rest = rest[end+1:]
		sp := strings.IndexAny(decl, " \t\r\n")
		if sp < 0 {
			return nil, fmt.Errorf("sdtd: malformed declaration %q", decl)
		}
		name, err := parseTaggedName(&models, decl[:sp])
		if err != nil {
			return nil, err
		}
		if _, dup := out.Types[name]; dup {
			return nil, fmt.Errorf("sdtd: %s declared twice", name)
		}
		spec := strings.TrimSpace(decl[sp:])
		inner := strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(spec, "("), ")"))
		if inner == "#PCDATA" {
			out.Declare(name, dtd.PC())
			continue
		}
		model, err := models.Parse(spec)
		if err != nil {
			return nil, fmt.Errorf("sdtd: %s: %v", name, err)
		}
		out.Declare(name, dtd.M(model))
	}
	if errs := out.Check(); len(errs) > 0 {
		return nil, fmt.Errorf("sdtd: %v", errs[0])
	}
	return out, nil
}

func parseTaggedName(models *regex.Parser, tok string) (Name, error) {
	e, err := models.Parse(tok)
	if err != nil {
		return Name{}, fmt.Errorf("sdtd: bad name %q: %v", tok, err)
	}
	a, ok := e.(regex.Atom)
	if !ok {
		return Name{}, fmt.Errorf("sdtd: %q is not a (tagged) name", tok)
	}
	return a.Name, nil
}
