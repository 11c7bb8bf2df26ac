package mediator

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Validators.
//
// A complete materialization — every part of the view, none dropped, none
// served from a last-known-good copy — carries a tag: the mediator's nonce,
// the view's name and, part by part, the content version (partResult.ver) of
// the part's result: the source generation of the calc that evaluated it.
// The tag identifies the document's content, by this argument.
//
// A view's definition never changes, and a calc's result never changes once
// published. A complete calc either evaluated its part — then its version
// is its own generation — or carried its predecessor's result over, picks
// and version both (evalPart). At most one complete calc per (part,
// generation) ever evaluates: a complete calc keeps its slot, and so keeps
// every later claim from making another, until its source's generation moves
// on, after which no calc of the old generation is claimed again (one that
// failed, was dropped or came back stale is replaced at the same generation,
// but reaches no tagged document and is nobody's predecessor). So, by
// induction along the chain of predecessors, every complete result of a part
// that says version g holds the very picks the one calc that evaluated at
// generation g made: equal tags mean the same elements in the same order.
//
// The other direction is the sources' to keep. A tag outlives an
// invalidation exactly when every refetch the invalidation forced returned
// the document the slot already held, and a document a wrapper hands out is
// never written again (Wrapper.Fetch) — so the picks a carried version names
// are the picks an evaluation of the source's current document would make.
// A source that changed returns another document; its part is evaluated at
// the invalidation's generation, which no earlier tag of this mediator says
// in that position.
//
// Generations are counted per Mediator value and start at zero, hence the
// nonce: a restarted process, or a second mediator, never repeats a tag.
// internal/serve sends the tag as the ETag of GET /views/{name}; HTTPSource
// holds it with the document it validated and asks with it.

// newNonce draws the random part of a mediator's tags.
func newNonce() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// No entropy: the clock still tells two starts of a process apart.
		binary.BigEndian.PutUint64(b[:], uint64(time.Now().UnixNano()))
	}
	return hex.EncodeToString(b[:])
}

// tagPrefixFor renders everything of view name's tags but the versions,
// once, at definition. The name is escaped into the characters an entity
// tag may hold; neither part contains a comma.
func tagPrefixFor(nonce, name string) string {
	return `"` + nonce + "-" + url.PathEscape(name) + "-"
}

// tagOf renders the tag of a complete materialization of every part of v.
func (v *View) tagOf(parts []plannedPart) string {
	var stack [128]byte // a longer tag regrows once
	buf := append(stack[:0], v.tagPrefix...)
	for i := range parts {
		if i > 0 {
			buf = append(buf, '.')
		}
		buf = strconv.AppendUint(buf, parts[i].res.ver, 10)
	}
	return string(append(buf, '"'))
}

// TagListed reports whether an If-None-Match header value names tag: one of
// its comma-separated entity tags is tag (compared weakly: a W/ prefix is
// ignored), or it is "*".
func TagListed(ifNoneMatch, tag string) bool {
	for rest := ifNoneMatch; rest != ""; {
		var candidate string
		candidate, rest, _ = strings.Cut(rest, ",")
		candidate = strings.TrimPrefix(strings.TrimSpace(candidate), "W/")
		if candidate == tag || candidate == "*" {
			return true
		}
	}
	return false
}
