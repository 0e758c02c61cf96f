#include "harness/table.hh"

#include <algorithm>
#include <cstdio>

#include "common/json.hh"
#include "common/sim_error.hh"

namespace si {

TablePrinter::TablePrinter(std::string title) : title_(std::move(title)) {}

void
TablePrinter::header(std::vector<std::string> columns)
{
    header_ = std::move(columns);
}

void
TablePrinter::row(std::vector<std::string> cells)
{
    sim_throw_if(!header_.empty() && cells.size() != header_.size(),
                 ErrorKind::Internal,
                 "table '%s': row has %zu cells, header has %zu",
                 title_.c_str(), cells.size(), header_.size());
    rows_.push_back(std::move(cells));
}

std::string
TablePrinter::num(double value, int decimals)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    return buf;
}

std::string
TablePrinter::pct(double value, int decimals)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, value);
    return buf;
}

std::string
TablePrinter::render() const
{
    std::vector<std::size_t> widths(header_.size(), 0);
    auto widen = [&](const std::vector<std::string> &cells) {
        if (widths.size() < cells.size())
            widths.resize(cells.size(), 0);
        for (std::size_t i = 0; i < cells.size(); ++i)
            widths[i] = std::max(widths[i], cells[i].size());
    };
    widen(header_);
    for (const auto &r : rows_)
        widen(r);

    auto render_row = [&](const std::vector<std::string> &cells) {
        std::string line;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            std::string cell = cells[i];
            cell.resize(widths[i], ' ');
            line += cell;
            if (i + 1 < cells.size())
                line += "  ";
        }
        // Trim trailing padding.
        while (!line.empty() && line.back() == ' ')
            line.pop_back();
        return line + "\n";
    };

    std::string out = "\n== " + title_ + " ==\n";
    if (!header_.empty()) {
        out += render_row(header_);
        std::size_t total = 0;
        for (std::size_t w : widths)
            total += w + 2;
        out += std::string(total > 2 ? total - 2 : 0, '-') + "\n";
    }
    for (const auto &r : rows_)
        out += render_row(r);
    return out;
}

void
TablePrinter::print() const
{
    std::fputs(render().c_str(), stdout);
    std::fflush(stdout);
}

std::string
TablePrinter::json() const
{
    json::Writer w;
    w.beginObject();
    w.key("title").value(title_);
    w.key("columns").beginArray();
    for (const auto &c : header_)
        w.value(c);
    w.endArray();
    w.key("rows").beginArray();
    for (const auto &r : rows_) {
        w.beginArray();
        for (const auto &cell : r)
            w.value(cell);
        w.endArray();
    }
    w.endArray();
    w.endObject();
    return w.take();
}

} // namespace si
