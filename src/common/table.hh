/**
 * @file
 * Minimal ASCII table printer used by the benchmark harness so every
 * table/figure bench prints paper-style rows in a uniform format, with
 * an optional CSV mode for downstream plotting.
 */

#ifndef HEROSIGN_COMMON_TABLE_HH
#define HEROSIGN_COMMON_TABLE_HH

#include <iosfwd>
#include <string>
#include <vector>

namespace herosign
{

/**
 * A simple column-aligned text table. Collect rows of strings, then
 * render aligned text or CSV.
 */
class TextTable
{
  public:
    /** Create a table with the given column headers. */
    explicit TextTable(std::vector<std::string> headers);

    /** Append one row; must match the header count. */
    void addRow(std::vector<std::string> row);

    /** Insert a horizontal separator before the next row. */
    void addSeparator();

    /** Render as aligned ASCII (with header rule). */
    std::string render() const;

    /** Render as CSV (separators skipped). */
    std::string renderCsv() const;

    /** Number of data rows (separators excluded). */
    size_t rowCount() const;

  private:
    std::vector<std::string> headers_;
    // Separator rows are encoded as empty vectors.
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with @p decimals digits after the point. */
std::string fmtF(double v, int decimals = 2);

/** Format as "1.23x" speedup notation. */
std::string fmtX(double v, int decimals = 2);

/** Format an integer with thousands separators ("12,345,678"). */
std::string fmtGrouped(uint64_t v);

} // namespace herosign

#endif // HEROSIGN_COMMON_TABLE_HH
