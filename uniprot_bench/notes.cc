#include "notes.h"

#include <algorithm>
#include <cctype>

#include "common/random.h"
#include "storage/table.h"

namespace uniprot_bench {

using nebula::TupleId;

namespace {

constexpr size_t kMinBytes = 50;
constexpr size_t kMaxBytes = 1000;
constexpr uint64_t kPopulationSeed = 0x6E6F746573ULL;  // "notes"

bool Fits(const std::string& text) {
  return text.size() >= kMinBytes && text.size() <= kMaxBytes;
}

}  // namespace

std::vector<Note> MakeNotes(const nebula::BioDataset& ds, size_t count,
                            uint64_t seed) {
  std::vector<Note> notes;
  for (const auto& a : ds.workload.annotations) {
    if (notes.size() == count) break;
    if (Fits(a.text) && !a.ideal_tuples.empty()) {
      notes.push_back({a.text, a.ideal_tuples});
    }
  }
  // The population is drawn with a fixed stream, so every seed inserts
  // the same notes and does comparable work; the seed sets their order.
  nebula::Rng pick(kPopulationSeed);
  const uint64_t corpus = ds.store.num_annotations();
  for (uint64_t id : pick.SampleWithoutReplacement(corpus, corpus)) {
    if (notes.size() == count) break;
    auto ann = ds.store.GetAnnotation(id);
    if (!ann.ok() || !Fits((*ann)->text)) continue;
    std::vector<TupleId> truth = ds.store.AttachedTuples(id, true);
    if (truth.empty()) continue;
    notes.push_back({(*ann)->text, std::move(truth)});
  }
  nebula::Rng rng(seed);
  for (size_t i = notes.size(); i > 1; --i) {
    std::swap(notes[i - 1], notes[rng.Uniform(i)]);
  }
  return notes;
}

IdentifierMap::IdentifierMap(const nebula::BioDataset& ds) {
  const auto add_column = [this, &ds](uint32_t table_id, size_t column) {
    const nebula::Table* table = ds.catalog.GetTableById(table_id);
    for (uint64_t row = 0; row < table->num_rows(); ++row) {
      ids_.emplace(table->GetCell(row, column).AsString(),
                   TupleId{table_id, row});
    }
  };
  add_column(ds.gene_table, 0);     // gid
  add_column(ds.gene_table, 1);     // name
  add_column(ds.protein_table, 0);  // pid
}

std::vector<TupleId> IdentifierMap::Named(const std::string& text) const {
  std::vector<TupleId> out;
  size_t i = 0;
  while (i < text.size()) {
    if (!std::isalnum(static_cast<unsigned char>(text[i]))) {
      ++i;
      continue;
    }
    size_t j = i;
    while (j < text.size() &&
           std::isalnum(static_cast<unsigned char>(text[j]))) {
      ++j;
    }
    auto it = ids_.find(text.substr(i, j - i));
    if (it != ids_.end() &&
        std::find(out.begin(), out.end(), it->second) == out.end()) {
      out.push_back(it->second);
    }
    i = j;
  }
  return out;
}

}  // namespace uniprot_bench
