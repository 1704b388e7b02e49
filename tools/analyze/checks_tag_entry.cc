/**
 * @file
 * tagentry-stale: a `TagEntry *` obtained from DecoupledSet::find()
 * dangles across any call that reorders the set's entry vector —
 * touch(), insert(), resize(), invalidate() all rotate entries in
 * place (decoupled_set.h documents the hazard on touch()). The
 * supported idiom is find -> mutate -> re-find.
 *
 * Replaces tools/lint.sh's line-oriented awk heuristic with a real
 * scoped-binding analysis over the token stream:
 *
 *  - a binding is born at `TagEntry *p = ...` and dies when its brace
 *    scope closes;
 *  - any member-style or unqualified call to a reordering method
 *    marks every live binding stale (recording the call line);
 *  - a later use of a stale binding (`p->`, `p[`, or `*p` in
 *    expression position) is a finding, unless a reassignment
 *    `p = ...` (the re-find) intervened;
 *  - an assignment whose right side *is* the reordering call
 *    (`p = &set.touch(line);`, touch() returning the moved entry)
 *    stales every other binding and re-binds `p` fresh.
 *
 * The analysis is deliberately control-flow-insensitive and
 * receiver-type-blind (it cannot prove `other.insert()` touches a
 * different object), so it over-approximates toward findings — the
 * correct bias for a use-after-free class whose symptom is silently
 * skewed statistics.
 */

#include <string>
#include <vector>

#include "tools/analyze/checker.h"

namespace cmpsim::analyze {

namespace {

bool
reorderingMethod(const std::string &name)
{
    return name == "touch" || name == "insert" || name == "resize" ||
           name == "invalidate";
}

/**
 * If the tokens from @p j form `[&] name ((.|->) name)* ( ... ) ;`
 * ending in a call to a reordering method — the whole right side of an
 * assignment being that call — return the index of the `;`, else 0.
 */
std::size_t
rebindingCallEnd(const std::vector<Token> &t, std::size_t j)
{
    std::size_t k = j;
    if (isPunct(t, k, "&"))
        ++k;
    std::size_t method = 0;
    while (k < t.size() && t[k].kind == TokKind::Ident) {
        method = k++;
        if (!isPunct(t, k, ".") && !isPunct(t, k, "->"))
            break;
        ++k;
    }
    if (method == 0 || !reorderingMethod(t[method].text) ||
        !isPunct(t, k, "("))
        return 0;
    int parens = 0;
    for (; k < t.size(); ++k) {
        if (isPunct(t, k, "("))
            ++parens;
        else if (isPunct(t, k, ")") && --parens == 0)
            break;
    }
    return isPunct(t, k + 1, ";") ? k + 1 : 0;
}

struct Binding
{
    std::string name;
    int decl_line = 0;
    int depth = 0;        ///< brace depth at declaration
    int stale_line = 0;   ///< 0 = fresh; else line of reordering call
};

class TagEntryChecker final : public Checker
{
  public:
    const char *id() const override { return "tagentry-stale"; }
    const char *description() const override
    {
        return "TagEntry* held across DecoupledSet "
               "touch()/insert()/resize()/invalidate()";
    }

    void checkFile(const SourceFile &f, const AnalysisContext &,
                   std::vector<Finding> &out) const override
    {
        const auto &t = f.tokens;
        std::vector<Binding> live;
        int depth = 0;

        for (std::size_t i = 0; i < t.size(); ++i) {
            if (isPunct(t, i, "{")) {
                ++depth;
                continue;
            }
            if (isPunct(t, i, "}")) {
                --depth;
                for (std::size_t b = live.size(); b-- > 0;) {
                    if (live[b].depth > depth)
                        live.erase(live.begin() +
                                   static_cast<std::ptrdiff_t>(b));
                }
                continue;
            }
            if (t[i].kind != TokKind::Ident)
                continue;

            // Birth: TagEntry *p = ...
            if (t[i].text == "TagEntry" && isPunct(t, i + 1, "*") &&
                i + 2 < t.size() && t[i + 2].kind == TokKind::Ident &&
                isPunct(t, i + 3, "=")) {
                Binding b;
                b.name = t[i + 2].text;
                b.decl_line = t[i + 2].line;
                b.depth = depth;
                // Replace a shadowed same-name binding.
                bool replaced = false;
                for (Binding &old : live) {
                    if (old.name == b.name) {
                        old = b;
                        replaced = true;
                        break;
                    }
                }
                if (!replaced)
                    live.push_back(b);
                i += 3;
                continue;
            }

            // Reordering call: .touch( / ->insert( / bare resize(.
            if (reorderingMethod(t[i].text) && isPunct(t, i + 1, "(")) {
                for (Binding &b : live) {
                    if (b.stale_line == 0)
                        b.stale_line = t[i].line;
                }
                continue;
            }

            // Reassignment (the re-find idiom) freshens the binding.
            // `p ==`/`p !=` are distinct tokens, so only plain `=`
            // matches here.
            Binding *bound = nullptr;
            for (Binding &b : live) {
                if (b.name == t[i].text) {
                    bound = &b;
                    break;
                }
            }
            if (bound == nullptr)
                continue;
            if (isPunct(t, i + 1, "=")) {
                const std::size_t end = rebindingCallEnd(t, i + 2);
                if (end != 0) {
                    for (Binding &b : live) {
                        if (&b != bound && b.stale_line == 0)
                            b.stale_line = t[i].line;
                    }
                    i = end;
                }
                bound->stale_line = 0;
                continue;
            }

            // Use of the pointer value: p-> , p[ , or *p in
            // expression position.
            const bool deref_use =
                isPunct(t, i + 1, "->") || isPunct(t, i + 1, "[") ||
                (i > 0 && isPunct(t, i - 1, "*") && i > 1 &&
                 (isPunct(t, i - 2, "(") || isPunct(t, i - 2, ",") ||
                  isPunct(t, i - 2, "=") || isPunct(t, i - 2, ";") ||
                  isIdent(t, i - 2, "return")));
            if (deref_use && bound->stale_line != 0) {
                out.push_back(
                    {id(), f.path, t[i].line,
                     "'" + bound->name + "' (TagEntry* from line " +
                         std::to_string(bound->decl_line) +
                         ") used after a reordering call on line " +
                         std::to_string(bound->stale_line) +
                         " invalidated it; re-find() before use"});
                // One report per staleness episode: freshen so a
                // long function doesn't repeat the same root cause.
                bound->stale_line = 0;
            }
        }
    }
};

} // namespace

std::unique_ptr<Checker>
makeTagEntryChecker()
{
    return std::make_unique<TagEntryChecker>();
}

} // namespace cmpsim::analyze
