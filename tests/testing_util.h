// Shared fixtures for the HERA test suite.

#ifndef HERA_TESTS_TESTING_UTIL_H_
#define HERA_TESTS_TESTING_UTIL_H_

#include <map>
#include <string>
#include <vector>

#include "record/dataset.h"
#include "sim/metrics.h"
#include "sim/value.h"

namespace hera {
namespace testing_util {

/// Builds the paper's Fig 1 motivating example: six customer records
/// under three source schemas. Record ids: r1..r6 -> 0..5. Ground
/// truth: {r1, r2, r4, r6} entity 0, {r3, r5} entity 1.
inline Dataset MakeCustomersDataset() {
  Dataset ds;
  uint32_t customer1 = ds.schemas().Register(
      Schema("CustomerI", {"name", "address", "e-mail", "city", "Con.Type"}));
  uint32_t customer2 =
      ds.schemas().Register(Schema("CustomerII", {"name", "Contact No.", "Job"}));
  uint32_t customer3 = ds.schemas().Register(Schema(
      "CustomerIII", {"name", "addr", "work mailbox", "Tel", "Con.Type"}));

  auto sv = [](const char* s) { return Value(std::string(s)); };
  // r1
  ds.AddRecord(customer1, {sv("John"), sv("2 Norman Street"), sv("bush@gmail"),
                           sv("LA"), sv("Electronic")});
  // r2
  ds.AddRecord(customer2, {sv("Bush"), sv("831-432"), sv("manager")});
  // r3
  ds.AddRecord(customer2, {sv("J.Bush"), sv("247-326"), sv("Product manager")});
  // r4
  ds.AddRecord(customer3, {sv("Bush"), sv("2 West Norman"), sv("bush@gmail"),
                           sv("831-432"), sv("Electronic")});
  // r5
  ds.AddRecord(customer3, {sv("J.Bush"), sv("West Norman"), sv("john@gmail"),
                           sv("247-326"), sv("sports")});
  // r6
  ds.AddRecord(customer3, {sv("John"), sv("2 Norman Street"), sv("bush@gmail"),
                           sv("831-432"), sv("electronics")});

  ds.entity_of() = {0, 0, 1, 0, 1, 0};

  // Canonical attribute concepts (manual curation, as the paper's
  // Table I does): 0 name, 1 address, 2 e-mail, 3 city, 4 Con.Type,
  // 5 phone, 6 job.
  auto map_attr = [&](uint32_t schema, uint32_t attr, uint32_t concept_id) {
    ds.canonical_attr()[AttrRef{schema, attr}] = concept_id;
  };
  map_attr(customer1, 0, 0);
  map_attr(customer1, 1, 1);
  map_attr(customer1, 2, 2);
  map_attr(customer1, 3, 3);
  map_attr(customer1, 4, 4);
  map_attr(customer2, 0, 0);
  map_attr(customer2, 1, 5);
  map_attr(customer2, 2, 6);
  map_attr(customer3, 0, 0);
  map_attr(customer3, 1, 1);
  map_attr(customer3, 2, 2);
  map_attr(customer3, 3, 5);
  map_attr(customer3, 4, 4);
  return ds;
}

/// True iff the two labelings induce identical partitions.
inline bool SamePartition(const std::vector<uint32_t>& a,
                          const std::vector<uint32_t>& b) {
  if (a.size() != b.size()) return false;
  std::map<uint32_t, uint32_t> fwd, bwd;
  for (size_t i = 0; i < a.size(); ++i) {
    auto [f, inserted_f] = fwd.emplace(a[i], b[i]);
    if (!inserted_f && f->second != b[i]) return false;
    auto [g, inserted_g] = bwd.emplace(b[i], a[i]);
    if (!inserted_g && g->second != a[i]) return false;
  }
  return true;
}

/// A black-box metric that reports a built-in name but scores another
/// way: the square of q-gram Jaccard. It declares no traits, so every
/// caller must score it with Compute. A pair it scores >= xi has a
/// Jaccard >= sqrt(xi) >= xi, so even the join's slackened prefix
/// filter finds every such pair.
class SquaredJaccardNamedJaccard : public ValueSimilarity {
 public:
  double Compute(const Value& a, const Value& b) const override {
    const double s = jaccard_.Compute(a, b);
    return s * s;
  }
  std::string Name() const override { return "jaccard_q2"; }

 private:
  JaccardSimilarity jaccard_{2};
};

}  // namespace testing_util
}  // namespace hera

#endif  // HERA_TESTS_TESTING_UTIL_H_
