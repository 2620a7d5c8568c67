#include "generator.h"

#include <cmath>
#include <numeric>
#include <set>
#include <utility>

#include "util/rng.h"
#include "util/string_util.h"

namespace subshare::perfbench {

namespace {

// Stream salts keep the per-workload generators independent of each other.
constexpr uint64_t kReportSalt = 0x5265706f72745346ull;
constexpr uint64_t kMqoSalt = 0x4d514f4261746368ull;
constexpr uint64_t kServerSalt = 0x5365727665724d78ull;
constexpr uint64_t kAppendSalt = 0x417070656e644f70ull;
constexpr uint64_t kThinkSalt = 0x5468696e6b54696dull;

template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[static_cast<size_t>(rng->Uniform(0, i - 1))]);
  }
}

// Single-table statements for the rebindable server shapes. Every literal is
// shifted by the variant number: months for dates, units for integers.
std::string RebindStmt(int kind, int month, int a, int shift) {
  switch (kind % 3) {
    case 0:
      return StrFormat(
          "select o_orderpriority, count(*) as n, sum(o_totalprice) as tp "
          "from orders where o_orderdate >= '%s' and o_orderdate < '%s' "
          "group by o_orderpriority",
          MonthStart(month + shift).c_str(),
          MonthStart(month + 9 + shift).c_str());
    case 1:
      return StrFormat(
          "select l_returnflag, l_linestatus, sum(l_quantity) as q, "
          "sum(l_extendedprice) as p from lineitem "
          "where l_shipdate >= '%s' and l_shipdate < '%s' "
          "and l_quantity < %d group by l_returnflag, l_linestatus",
          MonthStart(month + shift).c_str(),
          MonthStart(month + 12 + shift).c_str(), 20 + a + shift);
    default:
      return StrFormat(
          "select c_mktsegment, count(*) as n, sum(c_acctbal) as bal "
          "from customer where c_nationkey > %d and c_nationkey < %d "
          "group by c_mktsegment",
          a + shift, a + 14 + shift);
  }
}

void HashInto(uint64_t* h, const std::string& s) {
  for (unsigned char c : s) {
    *h ^= c;
    *h *= 0x100000001b3ull;
  }
  *h ^= 0xff;
  *h *= 0x100000001b3ull;
}

// mqo_batch's pool of kMqoPool distinct statements. It is the same for
// every seed, so seeds differ only in which statements each batch samples
// and in their order, not in the batch-time distribution.
std::vector<std::string> MqoPool() {
  Rng rng(Mix(kMqoSalt, 0));
  std::vector<std::string> pool;
  std::set<std::string> seen;
  for (int i = 0; static_cast<int>(pool.size()) < kMqoPool; ++i) {
    // The family's literal domains: four order-date cut-offs, even lower
    // nation bounds, upper bounds 20..29.
    static const int kMonths[] = {42, 54, 66, 48};
    FamilyStmt st;
    st.variant = i % 5;
    st.month = kMonths[rng.Uniform(0, 3)];
    st.lo = 2 * static_cast<int>(rng.Uniform(0, 4));
    st.hi = static_cast<int>(rng.Uniform(20, 29));
    std::string sql = RenderFamily(st);
    if (seen.insert(sql).second) pool.push_back(std::move(sql));
  }
  return pool;
}

}  // namespace

uint64_t Mix(uint64_t seed, uint64_t index) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string MonthStart(int month) {
  return StrFormat("%04d-%02d-01", 1992 + month / 12, 1 + month % 12);
}

std::string RenderFamily(const FamilyStmt& s) {
  if (s.variant >= 3) {
    const bool with_region = s.variant == 4;
    return StrFormat(
        "select n_regionkey, sum(l_extendedprice) as le, "
        "sum(l_quantity) as lq from customer, orders, lineitem, nation%s "
        "where c_custkey = o_custkey and o_orderkey = l_orderkey "
        "and c_nationkey = n_nationkey%s and o_orderdate < '%s' "
        "and c_nationkey > %d and c_nationkey < %d group by n_regionkey",
        with_region ? ", region" : "",
        with_region ? " and n_regionkey = r_regionkey" : "",
        MonthStart(s.month).c_str(), s.lo, s.hi);
  }
  static const char* const kGroups[] = {"c_nationkey", "c_mktsegment",
                                        "c_nationkey, c_mktsegment"};
  const char* group = kGroups[s.variant];
  return StrFormat(
      "select %s, sum(l_extendedprice) as le, sum(l_quantity) as lq "
      "from customer, orders, lineitem "
      "where c_custkey = o_custkey and o_orderkey = l_orderkey "
      "and o_orderdate < '%s' and c_nationkey > %d and c_nationkey < %d "
      "group by %s",
      group, MonthStart(s.month).c_str(), s.lo, s.hi, group);
}

Batch MakeBatch(std::vector<std::string> stmts) {
  Batch b;
  b.stmts = std::move(stmts);
  b.sql = Join(b.stmts, "; ");
  return b;
}

Batch ReportBatch(uint64_t seed, int64_t index) {
  // The four statements are fixed: one per grouping shape plus the
  // nation+region variant. Each literal set holds its widest value twice,
  // so every 3-of-4 batch spools the same C⨝O⨝L range hull. The seed orders
  // the batches and the statements within them; fixed statements keep the
  // batch-time distribution the same for every seed.
  static const FamilyStmt kPool[] = {
      {0, 48, 4, 29}, {1, 66, 0, 21}, {2, 54, 6, 29}, {4, 66, 0, 24}};
  std::vector<std::string> pool;
  for (const FamilyStmt& st : kPool) pool.push_back(RenderFamily(st));
  const int64_t round = index / kReportRound;
  Rng round_rng(Mix(seed ^ kReportSalt, 1 + 2 * static_cast<uint64_t>(round)));
  std::vector<int> dropped(kReportRound);
  std::iota(dropped.begin(), dropped.end(), 0);
  Shuffle(&dropped, &round_rng);
  const int drop = dropped[static_cast<size_t>(index % kReportRound)];
  std::vector<std::string> stmts;
  for (int i = 0; i < 4; ++i) {
    if (i != drop) stmts.push_back(pool[static_cast<size_t>(i)]);
  }
  Rng order_rng(Mix(seed ^ kReportSalt, 2 + 2 * static_cast<uint64_t>(index)));
  Shuffle(&stmts, &order_rng);
  return MakeBatch(std::move(stmts));
}

Batch MqoBatch(uint64_t seed, int64_t index) {
  const std::vector<std::string> pool = MqoPool();
  Rng rng(Mix(seed ^ kMqoSalt, 1 + static_cast<uint64_t>(index)));
  std::vector<int> order(pool.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<std::string> stmts;
  for (int i = 0; i < kMqoStatements; ++i) {
    // Partial Fisher–Yates: draw without replacement.
    size_t j = static_cast<size_t>(rng.Uniform(i, order.size() - 1));
    std::swap(order[static_cast<size_t>(i)], order[j]);
    stmts.push_back(pool[static_cast<size_t>(order[static_cast<size_t>(i)])]);
  }
  return MakeBatch(std::move(stmts));
}

ServerPool MakeServerPool() {
  Rng rng(Mix(kServerSalt, 0));
  std::vector<Batch> cse;
  for (int s = 0; s < kServerCseShapes; ++s) {
    // The three C⨝O⨝L grouping shapes, dealt literals from fixed sets as in
    // ReportBatch: the chosen plan spools one CSE covering every statement,
    // and shapes cost alike whatever the seed.
    std::vector<int> months = {48, 60, 66};
    std::vector<int> los = {0, 3, 6};
    std::vector<int> his = {22, 26, 29};
    Shuffle(&months, &rng);
    Shuffle(&los, &rng);
    Shuffle(&his, &rng);
    std::vector<FamilyStmt> base(3);
    for (size_t i = 0; i < base.size(); ++i) {
      base[i] = {static_cast<int>(i), months[i], los[i], his[i]};
    }
    Shuffle(&base, &rng);
    for (int v = 0; v < kServerVariants; ++v) {
      std::vector<std::string> stmts;
      for (FamilyStmt st : base) {
        st.month += v;
        st.lo += v;
        st.hi -= v;
        stmts.push_back(RenderFamily(st));
      }
      cse.push_back(MakeBatch(std::move(stmts)));
    }
  }
  std::vector<Batch> rebind;
  for (int s = 0; s < kServerRebindShapes; ++s) {
    // Two different single-table kinds per shape.
    const int k1 = static_cast<int>(rng.Uniform(0, 2));
    const int k2 = k1 + 1 + static_cast<int>(rng.Uniform(0, 1));
    const int month = static_cast<int>(rng.Uniform(24, 60));
    const int a = static_cast<int>(rng.Uniform(0, 8));
    for (int v = 0; v < kServerVariants; ++v) {
      rebind.push_back(MakeBatch(
          {RebindStmt(k1, month, a, v), RebindStmt(k2, month + 3, a + 1, v)}));
    }
  }
  Shuffle(&cse, &rng);
  Shuffle(&rebind, &rng);

  // Zipf(1) ranks; every third rank is a rebind batch.
  ServerPool pool;
  size_t next_cse = 0, next_rebind = 0;
  double total = 0;
  for (size_t rank = 0; next_cse < cse.size() || next_rebind < rebind.size();
       ++rank) {
    const bool want_rebind = rank % 3 == 2;
    if ((want_rebind && next_rebind < rebind.size()) ||
        next_cse >= cse.size()) {
      pool.batches.push_back(rebind[next_rebind++]);
    } else {
      pool.batches.push_back(cse[next_cse++]);
    }
    total += 1.0 / static_cast<double>(rank + 1);
    pool.cumulative.push_back(total);
  }
  for (double& c : pool.cumulative) c /= total;
  return pool;
}

int ServerPick(const ServerPool& pool, uint64_t seed, int reader,
               int64_t index) {
  Rng rng(Mix(seed ^ kServerSalt ^ (static_cast<uint64_t>(reader + 1) << 48),
              static_cast<uint64_t>(index)));
  const double u = rng.NextDouble();
  for (size_t i = 0; i < pool.cumulative.size(); ++i) {
    if (u < pool.cumulative[i]) return static_cast<int>(i);
  }
  return static_cast<int>(pool.cumulative.size()) - 1;
}

int64_t ServerThinkMicros(uint64_t seed, int reader, int64_t index) {
  Rng rng(Mix(seed ^ kThinkSalt ^ (static_cast<uint64_t>(reader + 1) << 48),
              static_cast<uint64_t>(index)));
  return static_cast<int64_t>(-kThinkMeanMicros *
                              std::log(1.0 - rng.NextDouble()));
}

AppendOp ServerAppend(uint64_t seed, int64_t index) {
  Rng rng(Mix(seed ^ kAppendSalt, static_cast<uint64_t>(index)));
  AppendOp op;
  op.order_row = static_cast<int>(rng.Uniform(0, kAppendSampleRows - 1));
  const int n = 1 + static_cast<int>(rng.Uniform(0, 2));
  for (int i = 0; i < n; ++i) {
    op.lineitem_rows.push_back(
        static_cast<int>(rng.Uniform(0, kAppendSampleRows - 1)));
  }
  return op;
}

uint64_t StreamDigest(const std::string& workload, uint64_t seed,
                      int batches) {
  uint64_t h = 0xcbf29ce484222325ull;
  if (workload == "report_sf02") {
    for (int i = 0; i < batches; ++i) HashInto(&h, ReportBatch(seed, i).sql);
  } else if (workload == "mqo_batch") {
    for (int i = 0; i < batches; ++i) HashInto(&h, MqoBatch(seed, i).sql);
  } else {
    ServerPool pool = MakeServerPool();
    for (const Batch& b : pool.batches) HashInto(&h, b.sql);
    for (int r = 0; r < 3; ++r) {
      for (int i = 0; i < batches; ++i) {
        HashInto(&h, std::to_string(ServerPick(pool, seed, r, i)));
      }
    }
    for (int i = 0; i < batches; ++i) {
      AppendOp op = ServerAppend(seed, i);
      HashInto(&h, std::to_string(op.order_row));
      for (int row : op.lineitem_rows) HashInto(&h, std::to_string(row));
    }
  }
  return h;
}

}  // namespace subshare::perfbench
