#include "mem/memory.hpp"

#include <cstring>
#include <vector>

#include "common/bitutil.hpp"
#include "common/contracts.hpp"
#include "common/strings.hpp"

namespace zolcsim::mem {

void Memory::misaligned(std::uint32_t addr, unsigned size) {
  throw MemoryFault("misaligned " + std::to_string(size) +
                    "-byte access at " + hex32(addr));
}

std::uint8_t* Memory::add_page(std::uint32_t addr) {
  const std::uint32_t leaf = addr >> (kPageBits + kLeafBits);
  if (leaf >= dir_.size()) dir_.resize(leaf + 1);
  if (!dir_[leaf]) dir_[leaf] = std::make_unique<Leaf>();
  Page& page = (*dir_[leaf])[(addr >> kPageBits) & (kLeafPages - 1)];
  const std::uint8_t* base = baseline_ ? baseline_->own_page(addr) : nullptr;
  if (base) {
    page = std::make_unique_for_overwrite<std::uint8_t[]>(kPageSize);
    std::memcpy(page.get(), base, kPageSize);
  } else {
    page = std::make_unique<std::uint8_t[]>(kPageSize);  // zero-filled
  }
  page_nos_.push_back(addr >> kPageBits);
  return page.get();
}

void Memory::set_baseline(std::shared_ptr<const Memory> baseline) {
  ZS_EXPECTS(baseline != nullptr);
  ZS_EXPECTS(!baseline->has_baseline());  // no COW chains
  ZS_EXPECTS(page_nos_.empty());
  baseline_ = std::move(baseline);
}

void Memory::reset_to_baseline() {
  ZS_EXPECTS(baseline_ != nullptr);
  for (std::uint32_t page_no : page_nos_) {
    (*dir_[page_no >> kLeafBits])[page_no & (kLeafPages - 1)].reset();
  }
  page_nos_.clear();
}

bool operator==(const Memory& a, const Memory& b) {
  static const std::uint8_t kZeroPage[Memory::kPageSize] = {};
  // Effective view: private pages shadow baseline pages, absent reads as 0.
  const auto effective = [](const Memory& m, std::uint32_t page_no) {
    const std::uint8_t* page = m.peek_page(page_no << Memory::kPageBits);
    return page ? page : kZeroPage;
  };
  const auto covered_by = [&effective](const Memory& lhs, const Memory& rhs) {
    const auto pages_match = [&](std::uint32_t page_no) {
      return std::memcmp(effective(lhs, page_no), effective(rhs, page_no),
                         Memory::kPageSize) == 0;
    };
    for (std::uint32_t page_no : lhs.page_nos_) {
      if (!pages_match(page_no)) return false;
    }
    if (lhs.baseline_) {
      for (std::uint32_t page_no : lhs.baseline_->page_nos_) {
        if (!pages_match(page_no)) return false;
      }
    }
    return true;
  };
  return covered_by(a, b) && covered_by(b, a);
}

void Memory::load_bytes(std::uint32_t addr,
                        std::span<const std::uint8_t> bytes) {
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::uint8_t* page = touch_page(addr + static_cast<std::uint32_t>(i));
    page[(addr + i) & (kPageSize - 1)] = bytes[i];
  }
}

void Memory::load_words(std::uint32_t addr,
                        std::span<const std::uint32_t> words) {
  for (std::size_t i = 0; i < words.size(); ++i) {
    const std::uint32_t a = addr + static_cast<std::uint32_t>(i) * 4;
    if (!is_aligned(a, 4)) misaligned(a, 4);
    std::uint8_t* page = touch_page(a);
    std::memcpy(page + (a & (kPageSize - 1)), &words[i], 4);
  }
}

std::vector<std::uint32_t> Memory::read_words(std::uint32_t addr,
                                              std::size_t count) const {
  std::vector<std::uint32_t> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(fetch32(addr + static_cast<std::uint32_t>(i) * 4));
  }
  return out;
}

}  // namespace zolcsim::mem
