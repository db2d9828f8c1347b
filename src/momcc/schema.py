"""A JSON Schema compiled once into plain checks.

`compile_schema` turns a schema dict into a function from a document to
its diagnostics: `"{pointer}: {message}"` lines, sorted by path and, at
one path, in the schema's keyword order. Wording, paths and order are
those of jsonschema's Draft 2020-12 validator, which the tests keep as
the reference. Two types are stricter than the draft's:

- an integer is a JSON integer: `512.0` is a number, not an integer;
- a number is finite: NaN and the infinities, which `json.loads`
  accepts, are not numbers, so no bound can pass them.

A `"type"` is one type's name or a list of them, `"null"` among them.
Each keyword's rule is written once, in `_RULES`: the classes of value
it applies to, its condition as Python source, and jsonschema's words
when it fails. A document the schema accepts is told apart first by
one predicate generated from the schema as Python source (`_acceptor`),
which inlines those conditions, so the governor can check each of its
writes' entries before it writes; only a refused document is walked
(`_walk`) for its diagnostics, by the same conditions, each compiled
once. A schema with a keyword `_RULES` does not hold, or a keyword
value this module does not implement, is refused with `ValueError`
when it is compiled, so a schema edit cannot drop a rule unnoticed.
"""
from __future__ import annotations

import operator
import re
from math import isfinite
from types import NoneType
from typing import Callable

# Per type name, the classes of its values, in the order the valid path tests them.
_TYPES = {
    "object": (dict,),
    "array": (list,),
    "string": (str,),
    "integer": (int,),
    "number": (int, float),
    "boolean": (bool,),
    "null": (NoneType,),
}


def _listed(names) -> list:
    return names if isinstance(names, list) else [names]


def _class_of(value):
    """The JSON class of `value`, a subclass counting as its base: None
    for NaN, the infinities and any value JSON does not hold."""
    if isinstance(value, float):
        return float if isfinite(value) else None
    for cls in (bool, int, str, list, dict, NoneType):
        if isinstance(value, cls):
            return cls
    return None


def _equal(one, two) -> bool:
    """JSON equality: `True` is not `1`, `1.0` is `1`, and arrays and
    objects compare item by item under the same rule."""
    if one is two:
        return True
    if isinstance(one, str) or isinstance(two, str):
        return one == two
    if isinstance(one, list) and isinstance(two, list):
        return len(one) == len(two) and all(map(_equal, one, two))
    if isinstance(one, dict) and isinstance(two, dict):
        return len(one) == len(two) and all(
            key in two and _equal(value, two[key]) for key, value in one.items()
        )
    if isinstance(one, bool) or isinstance(two, bool):
        return False
    return one == two


def _unexpected(x, v, c) -> list[str]:
    extras = sorted((key for key in x if key not in c), key=str)
    verb = "was" if len(extras) == 1 else "were"
    return [f"Additional properties are not allowed ({', '.join(map(repr, extras))} {verb} unexpected)"]


# Per keyword: the classes of value it applies to (None: every value);
# its condition on the value `{x}` and the constant `{c}` (`_constant`),
# None where it applies subschemas to the value's members; and the words
# for a value `x` that fails it, given the keyword's value `v` and `c`.
# The valid path tests "type", "enum" and "const" by exact class instead.
_NUMBERS = frozenset((int, float))
_SHORT = "should be non-empty"
_RULES = {
    "type": (None, "_class_of({x}) in {c}",
             lambda x, v, c: [f"{x!r} is not of type {', '.join(map(repr, _listed(v)))}"]),
    "enum": (None, "any(_equal(m, {x}) for m in {c})", lambda x, v, c: [f"{x!r} is not one of {v!r}"]),
    "const": (None, "_equal({x}, {c})", lambda x, v, c: [f"{v!r} was expected"]),
    "properties": ({dict}, None, None),
    "required": ({dict}, "{x}.keys() >= {c}",
                 lambda x, v, c: [f"{name!r} is a required property" for name in v if name not in x]),
    "additionalProperties": ({dict}, "{x}.keys() <= {c}", _unexpected),
    "items": ({list}, None, None),
    "prefixItems": ({list}, None, None),
    "minItems": ({list}, "len({x}) >= {c}", lambda x, v, c: [f"{x!r} {_SHORT if v == 1 else 'is too short'}"]),
    "maxItems": ({list}, "len({x}) <= {c}",
                 lambda x, v, c: [f"{x!r} {'is expected to be empty' if v == 0 else 'is too long'}"]),
    "minLength": ({str}, "len({x}) >= {c}", lambda x, v, c: [f"{x!r} {_SHORT if v == 1 else 'is too short'}"]),
    "pattern": ({str}, "{c}.search({x}) is not None", lambda x, v, c: [f"{x!r} does not match {v!r}"]),
    "minimum": (_NUMBERS, "{x} >= {c}", lambda x, v, c: [f"{x!r} is less than the minimum of {v!r}"]),
    "maximum": (_NUMBERS, "{x} <= {c}", lambda x, v, c: [f"{x!r} is greater than the maximum of {v!r}"]),
    "exclusiveMinimum": (_NUMBERS, "{x} > {c}",
                         lambda x, v, c: [f"{x!r} is less than or equal to the minimum of {v!r}"]),
    "exclusiveMaximum": (_NUMBERS, "{x} < {c}",
                         lambda x, v, c: [f"{x!r} is greater than or equal to the maximum of {v!r}"]),
}

# Each condition compiled once, as a function of the value and the constant.
_MET = {keyword: eval(f"lambda x, c: {condition.format(x='x', c='c')}")
        for keyword, (_, condition, _) in _RULES.items() if condition}


def _constant(keyword: str, value, schema: dict):
    """The constant `{c}` of a keyword's condition, from its value in `schema`."""
    if keyword == "type":
        return frozenset(cls for name in _listed(value) for cls in _TYPES[name])
    if keyword == "required":
        return frozenset(value)
    if keyword == "additionalProperties":
        return frozenset(schema.get("properties", ()))
    if keyword == "pattern":
        return re.compile(value)
    return value


def compile_schema(schema: dict) -> Callable[[object], list[str]]:
    """The checker of `schema`: a function from a document to all its diagnostics."""
    _refuse_unknown(schema)
    accepts = _acceptor(schema)

    def diagnostics(document) -> list[str]:
        """Every violation of the schema in `document`, as pointer-prefixed lines."""
        if accepts(document):
            return []
        errors: list[tuple[tuple, str]] = []
        _walk(schema, document, (), errors)
        errors.sort(key=operator.itemgetter(0))  # stable: keyword order within a path
        return [f"/{'/'.join(map(str, path))}: {message}" for path, message in errors]

    return diagnostics


def _refuse_unknown(schema) -> None:
    """Raise `ValueError` at a keyword or keyword value, in `schema` or below, not implemented here."""
    if not isinstance(schema, dict):
        raise ValueError(f"unsupported schema {schema!r}: only objects are implemented")
    for keyword, value in schema.items():
        if keyword not in _RULES:
            raise ValueError(f"unsupported schema keyword {keyword!r}")
        if keyword == "type" and not (value and all(isinstance(name, str) and name in _TYPES
                                                    for name in _listed(value))):
            raise ValueError(f"unsupported schema type {value!r}")
        if keyword == "additionalProperties" and value is not False:
            raise ValueError(f"unsupported schema additionalProperties {value!r}")
        subschemas = (value.values() if keyword == "properties" else value if keyword == "prefixItems"
                      else [value] if keyword == "items" else ())
        for subschema in subschemas:
            _refuse_unknown(subschema)


def _walk(schema: dict, x, path: tuple, errors: list) -> None:
    """Append each (path, message) by which the value `x` at `path` breaks `schema`, in keyword order."""
    cls = _class_of(x)
    for keyword, value in schema.items():
        classes, _, words = _RULES[keyword]
        if classes is not None and cls not in classes:
            continue
        if keyword == "properties":
            for name, subschema in value.items():
                if name in x:
                    _walk(subschema, x[name], path + (name,), errors)
        elif keyword == "prefixItems":
            for index, (item, subschema) in enumerate(zip(x, value)):
                _walk(subschema, item, path + (index,), errors)
        elif keyword == "items":
            for index in range(len(schema.get("prefixItems", ())), len(x)):
                _walk(value, x[index], path + (index,), errors)
        elif not _MET[keyword](x, c := _constant(keyword, value, schema)):
            errors += [(path, message) for message in words(x, value, c)]


# The classes of the values the valid path compares with a `const` or `enum`
# member by class and value: `True` is not `1`, and `1.0` is left to the walk.
_SCALARS = (str, int, float, bool, NoneType)


def _acceptor(schema: dict) -> Callable[[object], bool]:
    """A predicate true only of documents that meet `schema`, so that a
    valid document costs no walk: Python source generated from the
    schema, one function per object or array schema, each keyword's
    condition inlined. It is false where it cannot tell cheaply (a
    subclass of a JSON type, a `const` or `enum` member that is an array
    or object, a keyword beside no "type"), and the walk then decides."""
    namespace: dict = {"isfinite": isfinite, "_SCALARS": _SCALARS}
    sources: list[str] = []

    def constant(value) -> str:
        name = f"_c{len(namespace)}"
        namespace[name] = value
        return name

    def function(node: dict) -> str:
        index = len(sources)
        sources.append("")  # the children's functions follow it
        sources[index] = f"def _f{index}(v):\n    return {test(node, 'v')}\n"
        return f"_f{index}"

    def is_of(name: str, x: str) -> str:
        tests = [f"{x} is None" if cls is NoneType else
                 f"type({x}) is float and isfinite({x})" if cls is float else
                 f"type({x}) is {cls.__name__}" for cls in _TYPES[name]]
        return tests[0] if len(tests) == 1 else f"({' or '.join(tests)})"

    def condition(keyword: str, value, node: dict, x: str) -> str:
        if keyword == "properties":
            return " and ".join(f"({key!r} not in {x} or {test(sub, f'{x}[{key!r}]')})"
                                for key, sub in value.items()) or "True"
        if keyword == "prefixItems":
            return " and ".join(f"(len({x}) <= {i} or {test(sub, f'{x}[{i}]')})"
                                for i, sub in enumerate(value)) or "True"
        if keyword == "items":
            return f"all({test(value, 'y')} for y in {x}[{len(node.get('prefixItems', ()))}:])"
        return _RULES[keyword][1].format(x=x, c=constant(_constant(keyword, value, node)))

    def test(node: dict, x: str) -> str:
        """An expression true only if the value `x` meets `node`."""
        if x != "v" and {"properties", "items", "prefixItems"} & node.keys():
            return f"{function(node)}({x})"
        listed = _listed(node["type"]) if "type" in node else []
        allowed = {cls for name in listed for cls in _TYPES[name]}
        parts = ["(" + " or ".join(is_of(name, x) for name in listed) + ")"] if listed else []
        for keyword, value in node.items():
            if keyword in ("const", "enum"):
                members = [value] if keyword == "const" else value
                if not all(type(member) in _SCALARS for member in members):
                    return "False"
                keyed = constant(frozenset((type(member), member) for member in members))
                parts.append(f"(type({x}) in _SCALARS and (type({x}), {x}) in {keyed})")
            elif keyword != "type":
                if not listed:
                    return "False"
                classes = _RULES[keyword][0]
                if allowed & classes:
                    met = condition(keyword, value, node, x)
                    guard = "" if allowed <= classes else \
                        f"type({x}) not in ({', '.join(c.__name__ for c in classes)},) or "
                    parts.append(f"({guard}{met})")
        return " and ".join(parts) or "True"

    root = function(schema)
    exec("".join(sources), namespace)
    return namespace[root]
