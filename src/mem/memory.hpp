// Sparse byte-addressable memory model. Little-endian, paged allocation so a
// full 4 GiB address space can be simulated with only the touched pages
// resident: a two-level page directory whose root grows to the highest
// touched leaf and whose leaves are allocated on first touch. Misaligned
// accesses raise MemoryFault (the modelled core, like XiRisc, has no
// misaligned access support).
//
// A Memory can additionally reference an immutable shared baseline image
// (copy-on-write): reads fall through to the baseline, the first write to a
// page privatizes a local copy, and reset_to_baseline() drops the private
// (dirty) pages in O(dirty) — the warm-start alternative to rebuilding the
// image with Kernel::setup.
#ifndef ZOLCSIM_MEM_MEMORY_HPP
#define ZOLCSIM_MEM_MEMORY_HPP

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace zolcsim::mem {

/// Thrown on misaligned accesses. Models a precise alignment trap.
class MemoryFault : public std::runtime_error {
 public:
  explicit MemoryFault(const std::string& what_arg)
      : std::runtime_error(what_arg) {}
};

class Memory {
 public:
  static constexpr std::uint32_t kPageBits = 12;  // 4 KiB pages
  static constexpr std::uint32_t kPageSize = 1u << kPageBits;
  /// Pages per directory leaf. 64 (a 256 KiB span) keeps a paper-layout
  /// image (code at 0x1000, data at 0x100000-0x13FFFF) to two small leaves,
  /// which matters because a daemon holds one prepared image per unit.
  static constexpr std::uint32_t kLeafBits = 6;
  static constexpr std::uint32_t kLeafPages = 1u << kLeafBits;

  Memory() = default;

  // Reads and writes, inline over peek_page/touch_page: they sit on the
  // ISS's per-instruction path. Unwritten memory reads as zero.

  [[nodiscard]] std::uint8_t read8(std::uint32_t addr) const {
    const std::uint8_t* page = peek_page(addr);
    return page ? page[addr & (kPageSize - 1)] : 0;
  }

  [[nodiscard]] std::uint16_t read16(std::uint32_t addr) const {
    if ((addr & 1u) != 0) misaligned(addr, 2);
    const std::uint8_t* page = peek_page(addr);
    if (!page) return 0;
    std::uint16_t value = 0;
    std::memcpy(&value, page + (addr & (kPageSize - 1)), 2);
    return value;
  }

  [[nodiscard]] std::uint32_t read32(std::uint32_t addr) const {
    if ((addr & 3u) != 0) misaligned(addr, 4);
    const std::uint8_t* page = peek_page(addr);
    if (!page) return 0;
    std::uint32_t value = 0;
    // The host is little-endian (x86/ARM64), like the modelled core.
    std::memcpy(&value, page + (addr & (kPageSize - 1)), 4);
    return value;
  }

  void write8(std::uint32_t addr, std::uint8_t value) {
    touch_page(addr)[addr & (kPageSize - 1)] = value;
  }

  void write16(std::uint32_t addr, std::uint16_t value) {
    if ((addr & 1u) != 0) misaligned(addr, 2);
    std::memcpy(touch_page(addr) + (addr & (kPageSize - 1)), &value, 2);
  }

  void write32(std::uint32_t addr, std::uint32_t value) {
    if ((addr & 3u) != 0) misaligned(addr, 4);
    std::memcpy(touch_page(addr) + (addr & (kPageSize - 1)), &value, 4);
  }

  /// Instruction fetch: same as read32.
  [[nodiscard]] std::uint32_t fetch32(std::uint32_t addr) const {
    return read32(addr);
  }

  /// Copies a block of bytes into memory starting at `addr`.
  void load_bytes(std::uint32_t addr, std::span<const std::uint8_t> bytes);

  /// Copies 32-bit words (little-endian) into memory starting at `addr`.
  void load_words(std::uint32_t addr, std::span<const std::uint32_t> words);

  /// Reads `count` words starting at `addr` into a vector.
  [[nodiscard]] std::vector<std::uint32_t> read_words(std::uint32_t addr,
                                                      std::size_t count) const;

  /// Pages this memory owns, i.e. dirty pages when a baseline is attached
  /// (baseline pages are not counted). Reads never allocate.
  [[nodiscard]] std::size_t resident_pages() const noexcept {
    return page_nos_.size();
  }

  // ---- copy-on-write baseline ----

  /// Attaches `baseline` as the immutable shared image this memory reads
  /// through. Requires: `baseline` non-null, itself baseline-free (no COW
  /// chains), and this memory still empty (no pages written yet). The
  /// baseline must not be mutated while any view references it.
  void set_baseline(std::shared_ptr<const Memory> baseline);

  [[nodiscard]] bool has_baseline() const noexcept {
    return baseline_ != nullptr;
  }
  [[nodiscard]] const std::shared_ptr<const Memory>& baseline() const noexcept {
    return baseline_;
  }

  /// Discards every private page so the memory reads as the baseline image
  /// again, in O(dirty pages). Requires a baseline.
  void reset_to_baseline();

  /// Content equality over the union of both memories' effective pages
  /// (private pages shadowing baseline pages); a page resident on one side
  /// only must be all-zero (absent memory reads as zero, so residency
  /// itself is not architectural state). Used by co-simulation tests to
  /// compare full images.
  friend bool operator==(const Memory& a, const Memory& b);

  // Raw page access (the read*/write* accessors and the ISS summary tier go
  // through these). A returned pointer is valid until the next write to, or
  // reset of, this Memory: a write may privatize the baseline page a read
  // pointer aliases, and a reset frees private pages.

  /// The page containing `addr` (private first, then baseline), or nullptr
  /// when the page was never written (such memory reads as zero).
  [[nodiscard]] const std::uint8_t* peek_page(std::uint32_t addr) const {
    if (const std::uint8_t* page = own_page(addr)) return page;
    return baseline_ ? baseline_->own_page(addr) : nullptr;
  }

  /// The writable (private) page containing `addr`, allocated — and copied
  /// from the baseline when one covers it — on first touch.
  [[nodiscard]] std::uint8_t* touch_page(std::uint32_t addr) {
    if (std::uint8_t* page = own_page(addr)) return page;
    return add_page(addr);
  }

 private:
  using Page = std::unique_ptr<std::uint8_t[]>;
  using Leaf = std::array<Page, kLeafPages>;

  /// Raises the MemoryFault for a misaligned `size`-byte access at `addr`.
  /// Out of line and cold, so the inline accessors stay small.
  [[noreturn, gnu::cold]] static void misaligned(std::uint32_t addr,
                                                 unsigned size);

  /// This memory's own page containing `addr`, ignoring the baseline.
  [[nodiscard]] std::uint8_t* own_page(std::uint32_t addr) const {
    const std::uint32_t leaf = addr >> (kPageBits + kLeafBits);
    if (leaf >= dir_.size() || !dir_[leaf]) return nullptr;
    return (*dir_[leaf])[(addr >> kPageBits) & (kLeafPages - 1)].get();
  }

  /// Allocates the own page containing `addr` (zeroed, or a copy of the
  /// baseline's page).
  std::uint8_t* add_page(std::uint32_t addr);

  /// Root of the page directory: grown to the highest touched leaf.
  std::vector<std::unique_ptr<Leaf>> dir_;
  /// Page numbers of every own page, so reset and equality are O(own pages).
  std::vector<std::uint32_t> page_nos_;
  std::shared_ptr<const Memory> baseline_;
};

}  // namespace zolcsim::mem

#endif  // ZOLCSIM_MEM_MEMORY_HPP
