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
A document the schema accepts is told apart first by one predicate
generated from the schema as Python source (`_acceptor`), so the
governor can check each of its writes' entries before it writes; only
a refused document is walked keyword by keyword for its diagnostics.
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
OBJECT, ARRAY, STRING, INTEGER, FLOAT, BOOLEAN, NULL, OTHER = (
    "object", "array", "string", "integer", "float", "boolean", "null", "other"
)
_ALL = frozenset((OBJECT, ARRAY, STRING, INTEGER, FLOAT, BOOLEAN, NULL, OTHER))
_NUMBERS = frozenset((INTEGER, FLOAT))

_TYPE_KINDS = {
    "object": {OBJECT},
    "array": {ARRAY},
    "string": {STRING},
    "integer": {INTEGER},
    "number": _NUMBERS,
    "boolean": {BOOLEAN},
    "null": {NULL},
}

# A check appends each error it finds to its list argument: the path of
# the value at fault and the message.
Check = Callable[[object, tuple, list], None]


def _kind_of(value) -> str:
    if isinstance(value, float):
        return FLOAT if isfinite(value) else OTHER
    if isinstance(value, bool):
        return BOOLEAN
    if value is None:
        return NULL
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
    accepts = _acceptor(schema)

    def diagnostics(document) -> list[str]:
        """Every violation of the schema in `document`, as pointer-prefixed lines."""
        if accepts(document):
            return []
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
    # Per kind, the keyword checks that apply to it, in schema order.
    table = {kind: tuple(check for kinds, check in compiled if kind in kinds) for kind in _ALL}

    def check(instance, path: tuple, errors: list) -> None:
        for keyword_check in table[_kind_of(instance)]:
            keyword_check(instance, path, errors)

    return check


# Each keyword compiles to (the kinds it applies to, its check).

def _type(names, schema):
    listed = names if isinstance(names, list) else [names]
    if not listed or not all(isinstance(name, str) and name in _TYPE_KINDS for name in listed):
        raise ValueError(f"unsupported schema type {names!r}")
    words = ", ".join(repr(name) for name in listed)

    def check(instance, path, errors):
        errors.append((path, f"{instance!r} is not of type {words}"))

    return _ALL.difference(*(_TYPE_KINDS[name] for name in listed)), check


def _enum(members, schema):
    def check(instance, path, errors):
        if not any(_equal(member, instance) for member in members):
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


# -- the valid path -------------------------------------------------------------

# Per type name, the exact classes of its values and the expression true
# when the value `{x}` is of one of them.
_EXACT = {
    "object": ({dict}, "type({x}) is dict"),
    "array": ({list}, "type({x}) is list"),
    "string": ({str}, "type({x}) is str"),
    "integer": ({int}, "type({x}) is int"),
    "number": ({int, float}, "(type({x}) is int or type({x}) is float and isfinite({x}))"),
    "boolean": ({bool}, "type({x}) is bool"),
    "null": ({type(None)}, "{x} is None"),
}

# The classes of the JSON values a `const` or `enum` member is compared
# with by class and value: `True` is not `1`, and `1.0` is left to the
# keyword check.
_SCALARS = (str, int, float, bool, type(None))

# Per keyword that needs a "type" beside it: the classes it applies to,
# and its condition on the value `{x}` and the constant `{c}`.
_CONDITIONS = {
    "minItems": ({list}, "len({x}) >= {c}"),
    "maxItems": ({list}, "len({x}) <= {c}"),
    "minLength": ({str}, "len({x}) >= {c}"),
    "pattern": ({str}, "{c}.search({x}) is not None"),
    "minimum": ({int, float}, "{x} >= {c}"),
    "maximum": ({int, float}, "{x} <= {c}"),
    "exclusiveMinimum": ({int, float}, "{x} > {c}"),
    "exclusiveMaximum": ({int, float}, "{x} < {c}"),
    "required": ({dict}, "{x}.keys() >= {c}"),
    "additionalProperties": ({dict}, "{x}.keys() <= {c}"),
    "properties": ({dict}, None),
    "prefixItems": ({list}, None),
    "items": ({list}, None),
}


def _acceptor(schema: dict) -> Callable[[object], bool]:
    """A predicate true only of documents that meet `schema`, so that a
    valid document costs no keyword check: Python source generated from
    the schema, one function per object or array schema, each leaf
    inlined. It is false where it cannot tell cheaply (a subclass of a
    JSON type, a `const` or `enum` member that is an array or object, a
    keyword beside no "type"), and the keyword checks then decide. The
    tests compare `compile_schema` with the reference on every document
    they check, so a predicate true of an invalid one fails them."""
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

    def condition(keyword: str, value, node: dict, x: str) -> str:
        if keyword == "properties":
            return " and ".join(f"({key!r} not in {x} or {test(sub, f'{x}[{key!r}]')})"
                                for key, sub in value.items()) or "True"
        if keyword == "prefixItems":
            return " and ".join(f"(len({x}) <= {i} or {test(sub, f'{x}[{i}]')})"
                                for i, sub in enumerate(value)) or "True"
        if keyword == "items":
            return f"all({test(value, 'y')} for y in {x}[{len(node.get('prefixItems', ()))}:])"
        limit = (frozenset(value) if keyword == "required" else
                 frozenset(node.get("properties", ())) if keyword == "additionalProperties" else
                 re.compile(value) if keyword == "pattern" else value)
        return _CONDITIONS[keyword][1].format(x=x, c=constant(limit))

    def test(node: dict, x: str) -> str:
        """An expression true only if the value `x` meets `node`."""
        if x != "v" and {"properties", "items", "prefixItems"} & node.keys():
            return f"{function(node)}({x})"
        names = node.get("type")
        listed = [] if names is None else names if isinstance(names, list) else [names]
        allowed = set().union(*(_EXACT[name][0] for name in listed))
        parts = ["(" + " or ".join(_EXACT[name][1].format(x=x) for name in listed) + ")"] if listed else []
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
                classes = _CONDITIONS[keyword][0]
                if allowed & classes:
                    met = condition(keyword, value, node, x)
                    guard = "" if allowed <= classes else \
                        f"type({x}) not in ({', '.join(c.__name__ for c in classes)},) or "
                    parts.append(f"({guard}{met})")
        return " and ".join(parts) or "True"

    root = function(schema)
    exec("".join(sources), namespace)
    return namespace[root]
