"""A JSON Schema compiled once into plain checks.

`compile_schema` turns a schema dict into a function from a document to
its diagnostics: `"{pointer}: {message}"` lines, sorted by path and, at
one path, in the schema's keyword order. Wording, paths and order are
those of jsonschema's Draft 2020-12 validator, which the tests keep as
the reference. Two types are stricter than the draft's:

- an integer is a JSON integer: `512.0` is a number, not an integer;
- a number is finite: NaN and the infinities, which `json.loads`
  accepts, are not numbers, so no bound can pass them.

Only the keywords listed in `_KEYWORDS` are implemented. A schema with
any other keyword, or a keyword value this module does not implement,
is refused with `ValueError` when it is compiled, so a schema edit
cannot drop a rule unnoticed.
"""
from __future__ import annotations

import operator
import re
from math import isfinite
from typing import Callable

# The kind of a JSON value decides which keywords apply to it. A float
# is of kind "float" only when finite; NaN and the infinities are "other".
OBJECT, ARRAY, STRING, INTEGER, FLOAT, BOOLEAN, OTHER = (
    "object", "array", "string", "integer", "float", "boolean", "other"
)
_ALL = frozenset((OBJECT, ARRAY, STRING, INTEGER, FLOAT, BOOLEAN, OTHER))
_NUMBERS = frozenset((INTEGER, FLOAT))

_TYPE_KINDS = {
    "object": {OBJECT},
    "array": {ARRAY},
    "string": {STRING},
    "integer": {INTEGER},
    "number": _NUMBERS,
    "boolean": {BOOLEAN},
}

_KIND_OF_CLASS = {dict: OBJECT, list: ARRAY, str: STRING, int: INTEGER, bool: BOOLEAN}

# A check appends each error it finds to its list argument: the path of
# the value at fault and the message.
Check = Callable[[object, tuple, list], None]


def _kind_of(value) -> str:
    if isinstance(value, float):
        return FLOAT if isfinite(value) else OTHER
    if isinstance(value, bool):
        return BOOLEAN
    for cls, kind in ((int, INTEGER), (str, STRING), (list, ARRAY), (dict, OBJECT)):
        if isinstance(value, cls):
            return kind
    return OTHER


def _pointer(path: tuple) -> str:
    return "/" + "/".join(str(p) for p in path) if path else "/"


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


def compile_schema(schema: dict) -> Callable[[object], list[str]]:
    """The checker of `schema`: a function from a document to all its diagnostics."""
    check = _compile(schema)

    def diagnostics(document) -> list[str]:
        """Every violation of the schema in `document`, as pointer-prefixed lines."""
        errors: list[tuple[tuple, str]] = []
        check(document, (), errors)
        errors.sort(key=operator.itemgetter(0))  # stable: keyword order within a path
        return [f"{_pointer(path)}: {message}" for path, message in errors]

    return diagnostics


def _compile(schema) -> Check:
    if not isinstance(schema, dict):
        raise ValueError(f"unsupported schema {schema!r}: only objects are implemented")
    compiled = []
    for keyword, value in schema.items():
        compile_keyword = _KEYWORDS.get(keyword)
        if compile_keyword is None:
            raise ValueError(f"unsupported schema keyword {keyword!r}")
        compiled.append(compile_keyword(value, schema))
    # Per kind, the keyword checks that apply to it, in schema order; also
    # per exact class of the kinds that have one, so most values skip `_kind_of`.
    table = {kind: tuple(check for kinds, check in compiled if kind in kinds) for kind in _ALL}
    by_class = {cls: table[kind] for cls, kind in _KIND_OF_CLASS.items()}

    def check(instance, path: tuple, errors: list) -> None:
        checks = by_class.get(type(instance))
        if checks is None:
            checks = table[_kind_of(instance)]
        for keyword_check in checks:
            keyword_check(instance, path, errors)

    return check


# Each keyword compiles to (the kinds it applies to, its check).

def _type(name, schema):
    if not isinstance(name, str) or name not in _TYPE_KINDS:
        raise ValueError(f"unsupported schema type {name!r}")

    def check(instance, path, errors):
        errors.append((path, f"{instance!r} is not of type {name!r}"))

    return _ALL - _TYPE_KINDS[name], check


def _enum(members, schema):
    strings = frozenset(m for m in members if isinstance(m, str))
    others = [m for m in members if not isinstance(m, str)]

    def check(instance, path, errors):
        if isinstance(instance, str):
            found = instance in strings
        else:
            found = any(_equal(member, instance) for member in others)
        if not found:
            errors.append((path, f"{instance!r} is not one of {members!r}"))

    return _ALL, check


def _const(const, schema):
    def check(instance, path, errors):
        if not _equal(instance, const):
            errors.append((path, f"{const!r} was expected"))

    return _ALL, check


def _properties(properties, schema):
    children = [(name, _compile(subschema)) for name, subschema in properties.items()]

    def check(instance, path, errors):
        for name, child in children:
            if name in instance:
                child(instance[name], path + (name,), errors)

    return {OBJECT}, check


def _required(names, schema):
    def check(instance, path, errors):
        for name in names:
            if name not in instance:
                errors.append((path, f"{name!r} is a required property"))

    return {OBJECT}, check


def _additional_properties(allowed, schema):
    if allowed is not False:
        raise ValueError(f"unsupported schema additionalProperties {allowed!r}")
    known = frozenset(schema.get("properties", ()))

    def check(instance, path, errors):
        if instance.keys() <= known:
            return
        extras = sorted((key for key in instance if key not in known), key=str)
        verb = "was" if len(extras) == 1 else "were"
        listed = ", ".join(repr(extra) for extra in extras)
        errors.append((path, f"Additional properties are not allowed ({listed} {verb} unexpected)"))

    return {OBJECT}, check


def _items(items, schema):
    child = _compile(items)
    start = len(schema.get("prefixItems", ()))

    def check(instance, path, errors):
        for index in range(start, len(instance)):
            child(instance[index], path + (index,), errors)

    return {ARRAY}, check


def _prefix_items(prefix, schema):
    children = [_compile(subschema) for subschema in prefix]

    def check(instance, path, errors):
        for index, (item, child) in enumerate(zip(instance, children)):
            child(item, path + (index,), errors)

    return {ARRAY}, check


def _length(kinds, fails, special_limit, special, usual):
    """A bound on `len`: `special` is jsonschema's wording at `special_limit`."""
    def compile_length(limit, schema):
        words = special if limit == special_limit else usual

        def check(instance, path, errors):
            if fails(len(instance), limit):
                errors.append((path, f"{instance!r} {words}"))

        return kinds, check

    return compile_length


def _pattern(pattern, schema):
    regex = re.compile(pattern)

    def check(instance, path, errors):
        if not regex.search(instance):
            errors.append((path, f"{instance!r} does not match {pattern!r}"))

    return {STRING}, check


def _bound(fails, words):
    def compile_bound(limit, schema):
        def check(instance, path, errors):
            if fails(instance, limit):
                errors.append((path, f"{instance!r} {words} {limit!r}"))

        return _NUMBERS, check

    return compile_bound


_KEYWORDS = {
    "type": _type,
    "enum": _enum,
    "const": _const,
    "properties": _properties,
    "required": _required,
    "additionalProperties": _additional_properties,
    "items": _items,
    "prefixItems": _prefix_items,
    "minItems": _length({ARRAY}, operator.lt, 1, "should be non-empty", "is too short"),
    "maxItems": _length({ARRAY}, operator.gt, 0, "is expected to be empty", "is too long"),
    "minLength": _length({STRING}, operator.lt, 1, "should be non-empty", "is too short"),
    "pattern": _pattern,
    "minimum": _bound(operator.lt, "is less than the minimum of"),
    "maximum": _bound(operator.gt, "is greater than the maximum of"),
    "exclusiveMinimum": _bound(operator.le, "is less than or equal to the minimum of"),
    "exclusiveMaximum": _bound(operator.ge, "is greater than or equal to the maximum of"),
}
