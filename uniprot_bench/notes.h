#ifndef UNIPROT_BENCH_NOTES_H_
#define UNIPROT_BENCH_NOTES_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/schema.h"
#include "workload/generator.h"

namespace uniprot_bench {

/// One curator note to insert: its text and the tuples it truly refers
/// to. truth[0] is the focal the note is inserted with (Delta = 1).
struct Note {
  std::string text;
  std::vector<nebula::TupleId> truth;
};

/// Draws `count` distinct notes of 50..1000 bytes from a generated
/// dataset: every held-out L^m workload annotation (truth = its ideal
/// tuples) plus a fixed sample of corpus publication texts (truth = the
/// tuples the publication is attached to), in an order drawn from `seed`.
std::vector<Note> MakeNotes(const nebula::BioDataset& ds, size_t count,
                            uint64_t seed);

/// The benchmark's own map from every unique gene.gid, gene.name and
/// protein.pid value to its tuple, built from the tables directly (not
/// through any engine structure).
class IdentifierMap {
 public:
  explicit IdentifierMap(const nebula::BioDataset& ds);

  /// The tuples named in `text` by an exact identifier token (a maximal
  /// run of ASCII letters and digits), deduplicated, in text order.
  std::vector<nebula::TupleId> Named(const std::string& text) const;

 private:
  std::unordered_map<std::string, nebula::TupleId> ids_;
};

}  // namespace uniprot_bench

#endif  // UNIPROT_BENCH_NOTES_H_
