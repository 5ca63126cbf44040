// Package tpcw implements the TPC-W transactional web benchmark workload
// used as the performance metric throughout the paper: the 14 web
// interactions, the three workload mixes of Table 1 (browsing, shopping,
// ordering), emulated browsers with exponential think times, and the
// WIPS / WIPSb / WIPSo metrics.
//
// Simplification vs. the full TPC-W specification: interactions are drawn
// i.i.d. from the Table 1 mix rather than from the session transition
// matrix. Table 1 defines exactly these steady-state frequencies, which is
// what determines tier load, so the simplification preserves the workload
// property the experiments depend on.
package tpcw

import (
	"fmt"
	"strings"

	"webharmony/internal/rng"
	"webharmony/internal/webobj"
)

// Interaction is one of the 14 TPC-W web interactions (Table 1).
type Interaction int

// The 14 web interactions in Table 1 order.
const (
	Home Interaction = iota
	NewProducts
	BestSellers
	ProductDetail
	SearchRequest
	SearchResults
	ShoppingCart
	CustomerRegistration
	BuyRequest
	BuyConfirm
	OrderInquiry
	OrderDisplay
	AdminRequest
	AdminConfirm
	numInteractions
)

// NumInteractions is the number of TPC-W web interactions.
const NumInteractions = int(numInteractions)

var interactionNames = [NumInteractions]string{
	"Home", "New Products", "Best Sellers", "Product Detail",
	"Search Request", "Search Results", "Shopping Cart",
	"Customer Registration", "Buy Request", "Buy Confirm",
	"Order Inquiry", "Order Display", "Admin Request", "Admin Confirm",
}

// String returns the interaction's Table 1 name.
func (i Interaction) String() string {
	if i < 0 || int(i) >= NumInteractions {
		return "unknown"
	}
	return interactionNames[i]
}

// interactionSlugs indexes interaction → lowercase-dashed identifier.
var interactionSlugs = func() [NumInteractions]string {
	var out [NumInteractions]string
	for i, n := range interactionNames {
		out[i] = strings.ReplaceAll(strings.ToLower(n), " ", "-")
	}
	return out
}()

// Slug returns the interaction's name as a lowercase-dashed identifier
// ("new-products"), for contexts where names must be single machine-
// friendly tokens: folded-stack frames, CSV fields, span dumps.
func (i Interaction) Slug() string {
	if i < 0 || int(i) >= NumInteractions {
		return "unknown"
	}
	return interactionSlugs[i]
}

// Class partitions interactions into Browse and Order (Table 1).
type Class int

const (
	// ClassBrowse interactions browse and search the site.
	ClassBrowse Class = iota
	// ClassOrder interactions play an explicit role in ordering.
	ClassOrder
)

// String returns the class name.
func (c Class) String() string {
	if c == ClassBrowse {
		return "browse"
	}
	return "order"
}

// Class returns the interaction's Table 1 classification.
func (i Interaction) Class() Class {
	if i <= SearchResults {
		return ClassBrowse
	}
	return ClassOrder
}

// Workload selects one of the three TPC-W mixes.
type Workload int

const (
	// Browsing is the WIPSb mix: 95% browse / 5% order.
	Browsing Workload = iota
	// Shopping is the WIPS mix: 80% browse / 20% order.
	Shopping
	// Ordering is the WIPSo mix: 50% browse / 50% order.
	Ordering
)

// Workloads lists the three mixes in Table 1 order.
func Workloads() []Workload { return []Workload{Browsing, Shopping, Ordering} }

// String returns the workload name.
func (w Workload) String() string {
	switch w {
	case Browsing:
		return "browsing"
	case Shopping:
		return "shopping"
	case Ordering:
		return "ordering"
	default:
		return "unknown"
	}
}

// mixes holds Table 1: percentage of each interaction per workload.
var mixes = map[Workload][NumInteractions]float64{
	Browsing: {29.00, 11.00, 11.00, 21.00, 12.00, 11.00,
		2.00, 0.82, 0.75, 0.69, 0.30, 0.25, 0.10, 0.09},
	Shopping: {16.00, 5.00, 5.00, 17.00, 20.00, 17.00,
		11.60, 3.00, 2.60, 1.20, 0.75, 0.66, 0.10, 0.09},
	Ordering: {9.12, 0.46, 0.46, 12.35, 14.53, 13.08,
		13.53, 12.86, 12.73, 10.18, 0.25, 0.22, 0.12, 0.11},
}

// Mix returns the Table 1 interaction percentages for the workload.
func Mix(w Workload) [NumInteractions]float64 {
	m, ok := mixes[w]
	if !ok {
		panic(fmt.Sprintf("tpcw: unknown workload %d", w))
	}
	return m
}

// DBAction describes what an interaction requires from the database tier.
type DBAction int

const (
	// DBNone means the page needs no database work.
	DBNone DBAction = iota
	// DBRead is a simple indexed select.
	DBRead
	// DBJoin is a multi-table select.
	DBJoin
	// DBWrite is a transactional update.
	DBWrite
)

// String returns the action name.
func (a DBAction) String() string {
	switch a {
	case DBNone:
		return "none"
	case DBRead:
		return "read"
	case DBJoin:
		return "join"
	case DBWrite:
		return "write"
	default:
		return "unknown"
	}
}

// Profile describes how the cluster serves one interaction.
type Profile struct {
	// Static marks the page HTML itself as a cacheable static object
	// (forms, home page chrome). Non-static pages are generated by the
	// application tier per request.
	Static bool
	// DB is the database work the page generation needs.
	DB DBAction
	// Images is the number of embedded (cacheable) images on the page.
	Images int
	// DBResultKB is the approximate database result size in KB.
	DBResultKB int64
	// ExtDelaySec is time spent in external services while the
	// application server holds its worker threads — most importantly the
	// TPC-W payment gateway authorization on Buy Confirm. This is what
	// makes the ordering workload thread-hungry (Table 3).
	ExtDelaySec float64
}

// profiles maps each interaction to its serving profile. The assignments
// follow the page descriptions in the TPC-W specification and §II.A of the
// paper: browse pages are static-heavy, order pages exercise all tiers.
var profiles = [NumInteractions]Profile{
	Home:                 {Static: true, DB: DBNone, Images: 5},
	NewProducts:          {Static: false, DB: DBJoin, Images: 4, DBResultKB: 24},
	BestSellers:          {Static: false, DB: DBJoin, Images: 4, DBResultKB: 32},
	ProductDetail:        {Static: false, DB: DBRead, Images: 2, DBResultKB: 6},
	SearchRequest:        {Static: true, DB: DBNone, Images: 1},
	SearchResults:        {Static: false, DB: DBJoin, Images: 3, DBResultKB: 20},
	ShoppingCart:         {Static: false, DB: DBWrite, Images: 2, DBResultKB: 8},
	CustomerRegistration: {Static: true, DB: DBNone, Images: 1},
	BuyRequest:           {Static: false, DB: DBWrite, Images: 1, DBResultKB: 10, ExtDelaySec: 0.15},
	BuyConfirm:           {Static: false, DB: DBWrite, Images: 1, DBResultKB: 12, ExtDelaySec: 0.35},
	OrderInquiry:         {Static: true, DB: DBNone, Images: 1},
	OrderDisplay:         {Static: false, DB: DBRead, Images: 1, DBResultKB: 8},
	AdminRequest:         {Static: false, DB: DBRead, Images: 2, DBResultKB: 6},
	AdminConfirm:         {Static: false, DB: DBWrite, Images: 2, DBResultKB: 10, ExtDelaySec: 0.25},
}

// ProfileOf returns the serving profile for an interaction.
func ProfileOf(i Interaction) Profile {
	if i < 0 || int(i) >= NumInteractions {
		panic("tpcw: unknown interaction")
	}
	return profiles[i]
}

// PageRequest is one complete web interaction issued by an emulated
// browser: the page object plus its embedded images.
type PageRequest struct {
	Interaction Interaction
	Profile     Profile
	HTML        webobj.Object   // static page object or dynamic identity
	Images      []webobj.Object // embedded cacheable objects
	Browser     int             // issuing emulated-browser index
}

// Sampler draws interactions from a workload mix.
type Sampler struct {
	src *rng.Source
	cum [NumInteractions]float64
}

// NewSampler creates a sampler for the given workload.
func NewSampler(w Workload, src *rng.Source) *Sampler {
	s := &Sampler{src: src}
	s.SetWorkload(w)
	return s
}

// SetWorkload switches the sampler to another mix.
func (s *Sampler) SetWorkload(w Workload) {
	m := Mix(w)
	total := 0.0
	for i, p := range m {
		total += p
		s.cum[i] = total
	}
	// Normalize to guard against rounding in the published percentages.
	for i := range s.cum {
		s.cum[i] /= total
	}
}

// Next draws the next interaction.
func (s *Sampler) Next() Interaction {
	u := s.src.Float64()
	for i, c := range s.cum {
		if u < c {
			return Interaction(i)
		}
	}
	return Interaction(NumInteractions - 1)
}

// PageGen generates complete page requests for interactions, choosing the
// concrete objects (static page, images) by Zipf popularity over the
// catalog.
type PageGen struct {
	cat     *webobj.Catalog
	pagePop *webobj.Popularity
	imgPop  *webobj.Popularity
	dynSrc  *rng.Source
}

// NewPageGen creates a page generator over the catalog.
func NewPageGen(cat *webobj.Catalog, src *rng.Source) *PageGen {
	return &PageGen{
		cat:     cat,
		pagePop: webobj.NewPopularity(cat, src.Split(1), 0.95),
		imgPop:  webobj.NewPopularity(cat, src.Split(2), 0.90),
		dynSrc:  src.Split(3),
	}
}

// Page builds the request for one interaction issued by browser eb.
func (g *PageGen) Page(i Interaction, eb int) PageRequest {
	return g.PageBuf(i, eb, nil)
}

// PageBuf is Page reusing buf (emptied) as the backing store for Images,
// so a caller that owns the previous request — the driver's emulated
// browsers issue strictly one page at a time — generates pages without
// allocating a fresh image slice each.
func (g *PageGen) PageBuf(i Interaction, eb int, buf []webobj.Object) PageRequest {
	p := ProfileOf(i)
	pr := PageRequest{Interaction: i, Profile: p, Browser: eb}
	if p.Static {
		pr.HTML = g.pagePop.NextKind(webobj.KindStatic)
	} else {
		// Dynamic page identity: drawn from the catalog's dynamic range
		// so response sizes are realistic and deterministic.
		base := g.cat.CacheableTotal()
		n := g.cat.Total() - base
		pr.HTML = g.cat.Object(base + g.dynSrc.Uint64()%n)
	}
	pr.Images = buf[:0]
	for k := 0; k < p.Images; k++ {
		pr.Images = append(pr.Images, g.imgPop.NextKind(webobj.KindImage))
	}
	return pr
}
