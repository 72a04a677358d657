// Dynamic bitset tuned for dense concept-id sets.
//
// This is the *sequential* building block; the concurrent variant used for
// the shared P/K sets lives in parallel/atomic_bitmatrix.hpp.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"

namespace owlcl {

/// Calls fn(i) for every set bit i of the raw words[0, n), ascending: one
/// load + countr_zero chain per word. Shared by DynamicBitset and the
/// row-granular journal path, which takes rows as raw words.
template <class Fn>
void forEachSetBitInWords(const std::uint64_t* words, std::size_t n, Fn&& fn) {
  for (std::size_t w = 0; w < n; ++w)
    for (std::uint64_t v = words[w]; v != 0; v &= v - 1)
      fn(w * 64 + static_cast<std::size_t>(std::countr_zero(v)));
}

/// Number of set bits in the raw words[0, n).
inline std::uint64_t popcountWords(const std::uint64_t* words, std::size_t n) {
  std::uint64_t c = 0;
  for (std::size_t i = 0; i < n; ++i)
    c += static_cast<std::uint64_t>(std::popcount(words[i]));
  return c;
}

/// Fixed-capacity dynamic bitset with word-level iteration helpers.
class DynamicBitset {
 public:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;

  DynamicBitset() = default;
  explicit DynamicBitset(std::size_t nbits, bool value = false)
      : nbits_(nbits), words_(wordCount(nbits), value ? ~Word{0} : Word{0}) {
    trimTail();
  }

  std::size_t size() const { return nbits_; }
  bool empty() const { return nbits_ == 0; }

  void resize(std::size_t nbits, bool value = false);

  bool test(std::size_t i) const {
    OWLCL_DEBUG_ASSERT(i < nbits_);
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
  }

  void set(std::size_t i) {
    OWLCL_DEBUG_ASSERT(i < nbits_);
    words_[i / kWordBits] |= Word{1} << (i % kWordBits);
  }

  void reset(std::size_t i) {
    OWLCL_DEBUG_ASSERT(i < nbits_);
    words_[i / kWordBits] &= ~(Word{1} << (i % kWordBits));
  }

  void setAll();
  void resetAll();

  /// Number of set bits.
  std::size_t count() const;

  bool none() const;
  bool any() const { return !none(); }

  /// Index of the first set bit, or size() when none.
  std::size_t findFirst() const;
  /// Index of the first set bit strictly after `i`, or size() when none.
  std::size_t findNext(std::size_t i) const;

  /// In-place set operations. All operands must have equal size.
  DynamicBitset& operator|=(const DynamicBitset& o);
  DynamicBitset& operator&=(const DynamicBitset& o);
  DynamicBitset& operator-=(const DynamicBitset& o);  ///< set difference

  /// Word-parallel union that reports growth: true iff any bit was added.
  /// The told-closure fixpoint iterates this until no row grows.
  bool uniteWith(const DynamicBitset& o) {
    OWLCL_DEBUG_ASSERT(nbits_ == o.nbits_);
    Word changed = 0;
    for (std::size_t w = 0; w < words_.size(); ++w) {
      const Word before = words_[w];
      words_[w] = before | o.words_[w];
      changed |= words_[w] ^ before;
    }
    return changed != 0;
  }

  bool operator==(const DynamicBitset& o) const {
    return nbits_ == o.nbits_ && words_ == o.words_;
  }

  /// True when this set is a subset of `o` (sizes must match).
  bool isSubsetOf(const DynamicBitset& o) const;

  /// True when this set intersects `o` (sizes must match).
  bool intersects(const DynamicBitset& o) const;

  /// Append all set indices to `out`.
  void toVector(std::vector<std::uint32_t>& out) const;
  std::vector<std::uint32_t> toVector() const {
    std::vector<std::uint32_t> v;
    toVector(v);
    return v;
  }

  const Word* words() const { return words_.data(); }
  /// Raw word access for BitKernels mask kernels. Callers must keep bits
  /// past size() zero (same-size operands do; trimTail() repairs others).
  Word* mutableWords() { return words_.data(); }
  std::size_t wordCountUsed() const { return words_.size(); }

  /// Bulk-replace the word storage from `n` raw 64-bit words (bits past
  /// size() in the last word are trimmed). `n` must cover size() bits.
  void assignWords(const Word* src, std::size_t n);

  static std::size_t wordCount(std::size_t nbits) {
    return (nbits + kWordBits - 1) / kWordBits;
  }

  /// Iterate set bits: `for (auto i : bs.setBits()) ...`
  class SetBitRange;
  SetBitRange setBits() const;

  /// Word-level set-bit iteration: one load + countr_zero chain per word
  /// instead of a findNext() rescan per bit. The classifier's hierarchy
  /// loops use this — it is the sequential twin of
  /// AtomicBitMatrix::forEachSetBit.
  template <class Fn>
  void forEachSetBit(Fn&& fn) const {
    forEachSetBitInWords(words_.data(), words_.size(), fn);
  }

 private:
  // Keep bits past nbits_ zero so count()/compare stay exact.
  void trimTail();

  std::size_t nbits_ = 0;
  std::vector<Word> words_;
};

class DynamicBitset::SetBitRange {
 public:
  explicit SetBitRange(const DynamicBitset& bs) : bs_(&bs) {}
  class Iterator {
   public:
    Iterator(const DynamicBitset* bs, std::size_t pos) : bs_(bs), pos_(pos) {}
    std::size_t operator*() const { return pos_; }
    Iterator& operator++() {
      pos_ = bs_->findNext(pos_);
      return *this;
    }
    bool operator!=(const Iterator& o) const { return pos_ != o.pos_; }

   private:
    const DynamicBitset* bs_;
    std::size_t pos_;
  };
  Iterator begin() const { return Iterator(bs_, bs_->findFirst()); }
  Iterator end() const { return Iterator(bs_, bs_->size()); }

 private:
  const DynamicBitset* bs_;
};

inline DynamicBitset::SetBitRange DynamicBitset::setBits() const {
  return SetBitRange(*this);
}

}  // namespace owlcl
