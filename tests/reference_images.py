"""The tree-level translation of terms along a mapping, kept as a test reference.

A mapping holds each symbol image as a chain (`catq.mappings.Mapping`),
and `catq.mappings.mapping_chain` translates a term's chain symbol by
symbol.  The reference works on trees instead: each image is folded into
its term, and a term translates by substituting the translation of its
argument for the image's variable, innermost first.  `test_chain_images.py`
checks the chain code against it.
"""

from catq.terms import App, Var, fold_chain, free_vars, substitute


def extend(f_map, t, genmap=None):
    """t translated along f_map: a variable re-sorted, a 0-ary symbol renamed by genmap if it is there."""
    if isinstance(t, Var):
        return Var(t.name, f_map.sort_image(t.sort))
    if not t.args:
        return App((genmap or {}).get(t.sym, t.sym))
    image = fold_chain(f_map.symbol_map[t.sym])
    vs = free_vars(image)
    return substitute(image, {vs[0].name: extend(f_map, t.args[0], genmap)}) if vs else image


def composite_images(f_map, g_map):
    """The image of each symbol under first f_map, then g_map: g_map's extension of f_map's image."""
    return {f: extend(g_map, fold_chain(chain)) for f, chain in f_map.symbol_map.items()}
