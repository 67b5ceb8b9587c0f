package serve

// The decompose response writer. Every /v1/decompose answer — the warm
// hit, the cold miss, and the result event of /v1/decompose/stream — is
// one DecomposeResponse document built by appending the envelope fields
// and the cached partition.Frozen's own encoding into a pooled buffer. The
// bytes equal encoding/json's rendering of the equivalent
// DecomposeResponse (the oracle test pins that for every registered
// algorithm), but no reflection, no re-validation of the partition
// document and no Partition copy happen on the way.

import (
	"net/http"
	"strconv"
	"sync"

	"netdecomp/internal/partition"
)

// decomposeDoc is one decompose response: the DecomposeResponse fields
// with the partition in its shared frozen form.
type decomposeDoc struct {
	graph, plan   uint64
	seed          uint64
	algorithm     string
	cacheHit      bool
	latencyNs     int64
	droppedRounds int64
	partition     *partition.Frozen
}

// appendJSON appends the document in DecomposeResponse's field order,
// omitting droppedRounds when zero as its omitempty tag does.
func (d *decomposeDoc) appendJSON(b []byte) []byte {
	b = append(b, `{"graph":"`...)
	b = appendKey(b, d.graph)
	b = append(b, `","plan":"`...)
	b = appendKey(b, d.plan)
	b = append(b, `","seed":`...)
	b = strconv.AppendUint(b, d.seed, 10)
	b = append(b, `,"algorithm":`...)
	b = partition.AppendJSONString(b, d.algorithm)
	b = append(b, `,"cacheHit":`...)
	b = strconv.AppendBool(b, d.cacheHit)
	b = append(b, `,"latencyNs":`...)
	b = strconv.AppendInt(b, d.latencyNs, 10)
	if d.droppedRounds != 0 {
		b = append(b, `,"droppedRounds":`...)
		b = strconv.AppendInt(b, d.droppedRounds, 10)
	}
	b = append(b, `,"partition":`...)
	b = d.partition.AppendJSON(b)
	return append(b, '}')
}

// respBufs recycles response buffers: a warm hit's body is tens of KB, and
// reusing the buffer is what keeps the hit path from allocating it per
// request. A buffer grown past maxPooledBuf is left to the GC, so one huge
// partition does not stay pinned in the pool.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBuf = 1 << 20

func putRespBuf(buf *[]byte) {
	if cap(*buf) <= maxPooledBuf {
		respBufs.Put(buf)
	}
}

// writeDecompose answers a decompose request with doc: the whole body
// built in a pooled buffer, then sent with Content-Length in one write.
func (s *Server) writeDecompose(w http.ResponseWriter, doc *decomposeDoc) {
	buf := respBufs.Get().(*[]byte)
	defer putRespBuf(buf)
	*buf = append(doc.appendJSON((*buf)[:0]), '\n')
	s.writeBody(w, http.StatusOK, *buf)
}

// writeSSEResult emits doc as the stream's result event in one write.
func writeSSEResult(w http.ResponseWriter, doc *decomposeDoc) {
	buf := respBufs.Get().(*[]byte)
	defer putRespBuf(buf)
	*buf = append(doc.appendJSON(append((*buf)[:0], "event: result\ndata: "...)), "\n\n"...)
	w.Write(*buf)
}
