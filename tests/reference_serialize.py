"""Reference dict layout of the JSON documents, for the tests.

``heegaard.serialize.to_json`` writes elements, tensors and projectors as
text, record by record.  This module keeps the dict tree those documents
used to be built from, so that tests can check the text against
``json.dumps(reference_dict(x), sort_keys=True, separators=(",", ":"))``.
"""

import cmath
from fractions import Fraction

from heegaard.algebra import AlgebraElement
from heegaard.bundles import TensorElement
from heegaard.phases import FLOAT
from heegaard.serialize import context_to_obj


def coeff_records(c):
    """One record per phase (rational) or a single re/im record (float)."""
    if c.mode == FLOAT:
        z = c.to_complex()
        return [{"re": z.real, "im": z.imag}]
    records = []
    for k, w in sorted(c.terms.items()):
        z, t = complex(w) * cmath.exp(2j * cmath.pi * (k / c.D)), Fraction(k, c.D)
        records.append({"re": z.real, "im": z.imag,
                        "phase_num": t.numerator, "phase_den": t.denominator,
                        "amp_num": w.numerator, "amp_den": w.denominator})
    return records


def terms_to_obj(x):
    return [{"p": list(p), "q": list(q), **rec}
            for (p, q), c in x.sorted_terms() for rec in coeff_records(c)]


def vector_records(v):
    """A {(p, q): Coeff} vector as [[p, q, <Coeff records>], ...], sorted by word."""
    return [[list(p), list(q), coeff_records(v[(p, q)])] for p, q in sorted(v)]


def reference_dict(x):
    """The document of an element, tensor or projector as a dict tree."""
    if isinstance(x, AlgebraElement):
        return {"context": context_to_obj(x.ctx), "terms": terms_to_obj(x)}
    if isinstance(x, TensorElement):
        return {"context": context_to_obj(x.ctx),
                "summands": [{"left": terms_to_obj(a), "right": terms_to_obj(r)}
                             for a, r in x.summands]}
    return {"n": x.winding, "size": x.size,
            "context": context_to_obj(x.entries[0][0].ctx),
            "entries": [[terms_to_obj(y) for y in row] for row in x.entries]}
