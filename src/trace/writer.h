/**
 * @file
 * Trace serialization. write, writeFile and writeBuffer share one
 * serializer (trace/writer.cc), so the three give the same bytes.
 */

#ifndef CELL_TRACE_WRITER_H
#define CELL_TRACE_WRITER_H

#include <iosfwd>
#include <string>
#include <vector>

#include "trace/format.h"

namespace cell::trace {

/** Serialization knobs. */
struct WriteOptions
{
    /**
     * Records-per-core between v2 footer index entries; 0 (the
     * default) writes a plain v1 trace, byte-identical to what every
     * earlier writer produced. Nonzero appends the self-checksummed
     * index footer AFTER the record region — the file header stays at
     * version 1 and v1 readers (strict and salvage) ignore the footer,
     * so the index is strictly additive. See trace/index.h.
     */
    std::uint32_t index_stride = 0;

    /**
     * Write the record region as v3 compressed blocks (file header
     * version 3): independently decodable, self-checksummed,
     * delta-encoded varint blocks — typically 3-5x smaller than the
     * fixed 32-byte records. Readers decode transparently and every
     * analysis output stays byte-identical to the v1 file of the same
     * trace. Composes with index_stride: the footer index addresses
     * records through VIRTUAL v1 offsets, so indexed window queries
     * keep working on compressed files. See trace/block.h.
     */
    bool compress = false;

    /** Records per compressed block; 0 picks kDefaultBlockRecords
     *  (2048 records = 64 KiB uncompressed). Ignored unless compress. */
    std::uint32_t block_records = 0;

    /**
     * Write blocks in the original interleaved payload layout instead
     * of the columnar streams the writer now defaults to. Back-compat
     * escape hatch (and test fixture generator): both layouts decode
     * to identical records and may even be mixed within one file, the
     * columnar one is just faster to decode. Ignored unless compress.
     */
    bool legacy_payload = false;

    /**
     * Threads that encode v3 blocks; 0 (the default) means hardware
     * concurrency. One serial pass replays the records for the block
     * seeds and the footer index, then every block encodes on its own
     * on a util::WorkerPool of at most one thread per block, so a
     * region of one block starts no pool. The bytes written are the
     * same at every thread count.
     */
    unsigned threads = 0;
};

/** Serialize @p trace to a binary stream. @throws std::runtime_error. */
void write(std::ostream& os, const TraceData& trace,
           const WriteOptions& opt = {});

/** Serialize @p trace to @p path. @throws std::runtime_error. */
void writeFile(const std::string& path, const TraceData& trace,
               const WriteOptions& opt = {});

/** Serialize to an in-memory byte buffer. */
std::vector<std::uint8_t> writeBuffer(const TraceData& trace,
                                      const WriteOptions& opt = {});

} // namespace cell::trace

#endif // CELL_TRACE_WRITER_H
