"""Input documents: the JSON schema, parsing with located errors, and the
lattice rules a document must satisfy."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import InputError
from .lattice import DEFAULT_GROUP_CAP, WeightMultiset, ray
from .matrices import IntMatrix
from .weyl import reflection_ray

# The largest degree verify and molien accept, from --max-degree or from
# options.max_degree.  Both build their series and graded spaces degree by
# degree up to it, so a larger bound would only exhaust memory or time.
MAX_DEGREE = 64


@dataclass(frozen=True)
class InputDocument:
    """The lattice data of one quotient stack V/G: the Weyl generators acting
    on the character lattice of G, the adjoint weights and the weights of V."""

    name: str
    rank: int
    weyl_generators: tuple[IntMatrix, ...]
    g_weights: WeightMultiset
    v_weights: WeightMultiset
    max_degree: int | None
    group_cap: int = DEFAULT_GROUP_CAP

    def validate(self) -> None:
        """Check the lattice rules; the schema (document_from_dict) owns the shapes.

        A generator must be the reflection in a root, so it is its own integer
        inverse; the group's one enumeration (weyl.enumerate_group), which
        every report builds, checks that the group is finite."""
        self._check_weights("g_weights", self.g_weights)
        zero = tuple(0 for _ in range(self.rank))
        if self.g_weights.multiplicity(zero) != self.rank:
            raise InputError(
                "g_weights must contain the zero weight with multiplicity equal to the rank"
            )
        if self.g_weights.negated() != self.g_weights:
            raise InputError("g_weights must equal their negation as a multiset")
        for w, m in self.g_weights:
            if any(w) and m > 1:
                raise InputError(
                    f"g_weights entry {w} has multiplicity {m}; a root has multiplicity 1"
                )
        roots = {ray(w)[0] for w in self.g_weights.nonzero_supports()}
        for k, gen in enumerate(self.weyl_generators):
            if reflection_ray(gen) not in roots:
                raise InputError(f"weyl_generators[{k}] is not the reflection in a root of g_weights")
        self._check_weights("v_weights", self.v_weights)

    def _check_weights(self, label: str, ws: WeightMultiset) -> None:
        """Each generator fixes the multiset."""
        for k, gen in enumerate(self.weyl_generators):
            if ws.transformed(gen) != ws:
                raise InputError(f"{label} are not stable under weyl_generators[{k}]")

    def to_dict(self) -> dict:
        doc = {
            "name": self.name,
            "rank": self.rank,
            "weyl_generators": [[list(row) for row in m] for m in self.weyl_generators],
            "g_weights": [
                {"alpha": list(w), "multiplicity": m} for w, m in self.g_weights
            ],
            "v_weights": [
                {"alpha": list(w), "multiplicity": m} for w, m in self.v_weights
            ],
            "options": {"group_cap": self.group_cap},
        }
        if self.max_degree is not None:
            doc["options"]["max_degree"] = self.max_degree
        return doc


def _require(cond: bool, location: str, message: str) -> None:
    if not cond:
        raise InputError(f"{location}: {message}")


def _known_keys(raw: dict, prefix: str, keys: tuple[str, ...]) -> None:
    """Reject keys outside keys: a misspelt one would silently be ignored."""
    for key in raw:
        _require(key in keys, f"{prefix}{key}", "unknown key")


def _is_int(x) -> bool:
    """True for a JSON integer; bool is an int subclass but not one."""
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_weights(raw, location: str, rank: int) -> WeightMultiset:
    _require(isinstance(raw, list), location, "expected a list of weight entries")
    pairs = []
    for i, entry in enumerate(raw):
        loc = f"{location}[{i}]"
        _require(isinstance(entry, dict), loc, "expected an object")
        _known_keys(entry, f"{loc}.", ("alpha", "multiplicity"))
        alpha = entry.get("alpha")
        _require(
            isinstance(alpha, list)
            and len(alpha) == rank
            and all(_is_int(c) for c in alpha),
            f"{loc}.alpha",
            f"expected a list of {rank} integers",
        )
        mult = entry.get("multiplicity", 1)
        _require(
            _is_int(mult) and mult >= 1,
            f"{loc}.multiplicity",
            "expected a positive integer",
        )
        pairs.append((tuple(alpha), mult))
    return WeightMultiset.from_pairs(pairs)


def document_from_dict(raw: dict) -> InputDocument:
    _require(isinstance(raw, dict), "document", "expected a JSON object")
    _known_keys(raw, "", ("name", "rank", "weyl_generators", "g_weights", "v_weights", "options"))
    name = raw.get("name", "input")
    _require(isinstance(name, str), "name", "expected a string")
    rank = raw.get("rank")
    _require(_is_int(rank) and rank >= 1, "rank", "expected a positive integer")
    gens_raw = raw.get("weyl_generators", [])
    _require(isinstance(gens_raw, list), "weyl_generators", "expected a list of matrices")
    gens = []
    for k, g in enumerate(gens_raw):
        loc = f"weyl_generators[{k}]"
        _require(
            isinstance(g, list)
            and len(g) == rank
            and all(
                isinstance(row, list)
                and len(row) == rank
                and all(_is_int(x) for x in row)
                for row in g
            ),
            loc,
            f"expected a {rank}x{rank} integer matrix",
        )
        gens.append(tuple(tuple(row) for row in g))
    g_weights = _parse_weights(raw.get("g_weights", []), "g_weights", rank)
    v_weights = _parse_weights(raw.get("v_weights", []), "v_weights", rank)
    options = raw.get("options", {})
    _require(isinstance(options, dict), "options", "expected an object")
    _known_keys(options, "options.", ("max_degree", "group_cap"))
    max_degree = options.get("max_degree")
    _require(
        max_degree is None or (_is_int(max_degree) and max_degree >= 0),
        "options.max_degree",
        "expected a nonnegative integer",
    )
    _require(
        max_degree is None or max_degree <= MAX_DEGREE,
        "options.max_degree",
        f"expected at most {MAX_DEGREE}, got {max_degree}",
    )
    group_cap = options.get("group_cap", DEFAULT_GROUP_CAP)
    _require(
        _is_int(group_cap) and group_cap >= 1,
        "options.group_cap",
        "expected a positive integer",
    )
    return InputDocument(
        name=name,
        rank=rank,
        weyl_generators=tuple(gens),
        g_weights=g_weights,
        v_weights=v_weights,
        max_degree=max_degree,
        group_cap=group_cap,
    )


def parse_input(text: str) -> InputDocument:
    """Parse a JSON input document against the schema, with located errors.

    The lattice rules are checked by InputDocument.validate, which cli.run
    calls once per report."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}") from exc
    # Python words these two (too deep a nesting, an integer past the digit
    # limit) differently by version; a report's bytes must not differ
    except RecursionError as exc:
        raise InputError("malformed JSON: nested too deeply") from exc
    except ValueError as exc:
        raise InputError("malformed JSON: an integer literal has too many digits") from exc
    return document_from_dict(raw)
