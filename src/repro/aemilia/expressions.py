"""Typed expression language used throughout the specification language.

Expressions appear in three places of an architectural description:

* **guards** of behaviour alternatives (``cond(n < capacity) -> ...``),
* **data arguments** of process calls (``Buffer(n + 1)``),
* **rate arguments** (``exp(1 / service_time)``).

The language is deliberately small: boolean, integer and real literals,
variables, arithmetic, comparisons, boolean connectives and a handful of
builtin functions (``min``, ``max``, ``abs``, ``floor``, ``ceil``).

All nodes are immutable and hashable so that behaviour terms containing
expressions can be used as dictionary keys during state-space generation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple, Union

from ..errors import EvaluationError, TypeCheckError

Value = Union[bool, int, float]

#: Environment binding variable names to values.
Env = Mapping[str, Value]


class DataType(enum.Enum):
    """Static types of the expression language."""

    BOOL = "bool"
    INT = "int"
    REAL = "real"

    def accepts(self, other: "DataType") -> bool:
        """Return True when a value of type *other* can be used as *self*.

        The only implicit widening is ``int`` → ``real``.
        """
        if self is other:
            return True
        return self is DataType.REAL and other is DataType.INT

    @staticmethod
    def of_value(value: Value) -> "DataType":
        """Return the static type of a Python runtime value."""
        if isinstance(value, bool):
            return DataType.BOOL
        if isinstance(value, int):
            return DataType.INT
        if isinstance(value, float):
            return DataType.REAL
        raise TypeCheckError(f"unsupported runtime value {value!r}")

    @staticmethod
    def parse(name: str) -> "DataType":
        """Parse a type keyword (``bool`` / ``int`` / ``real``)."""
        try:
            return DataType(name)
        except ValueError:
            raise TypeCheckError(f"unknown data type {name!r}") from None


class Expr:
    """Base class of all expression nodes."""

    def evaluate(self, env: Env) -> Value:
        """Evaluate the expression under the environment *env*."""
        raise NotImplementedError

    def free_variables(self) -> frozenset:
        """Return the set of variable names occurring in the expression."""
        raise NotImplementedError

    def infer_type(self, scope: Mapping[str, DataType]) -> DataType:
        """Infer the static type of the expression under *scope*."""
        raise NotImplementedError


@dataclass(frozen=True)
class Literal(Expr):
    """A boolean, integer or real constant."""

    value: Value

    def evaluate(self, env: Env) -> Value:
        return self.value

    def free_variables(self) -> frozenset:
        return frozenset()

    def infer_type(self, scope: Mapping[str, DataType]) -> DataType:
        return DataType.of_value(self.value)

    def __str__(self) -> str:
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        return repr(self.value)


@dataclass(frozen=True)
class Variable(Expr):
    """A reference to a data parameter or architectural constant."""

    name: str

    def evaluate(self, env: Env) -> Value:
        try:
            return env[self.name]
        except KeyError:
            raise EvaluationError(f"unbound variable {self.name!r}") from None

    def free_variables(self) -> frozenset:
        return frozenset({self.name})

    def infer_type(self, scope: Mapping[str, DataType]) -> DataType:
        try:
            return scope[self.name]
        except KeyError:
            raise TypeCheckError(f"undeclared variable {self.name!r}") from None

    def __str__(self) -> str:
        return self.name


_ARITHMETIC = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "%": lambda a, b: a % b,
}

_COMPARISON = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}

_BOOLEAN = {
    "and": lambda a, b: a and b,
    "or": lambda a, b: a or b,
}


@dataclass(frozen=True)
class BinaryOp(Expr):
    """A binary operation: arithmetic, comparison or boolean connective."""

    op: str
    left: Expr
    right: Expr

    def evaluate(self, env: Env) -> Value:
        if self.op in _BOOLEAN:
            # Short-circuit evaluation mirrors conventional languages.
            left = self.left.evaluate(env)
            if not isinstance(left, bool):
                raise EvaluationError(f"'{self.op}' needs boolean operands")
            if self.op == "and" and not left:
                return False
            if self.op == "or" and left:
                return True
            right = self.right.evaluate(env)
            if not isinstance(right, bool):
                raise EvaluationError(f"'{self.op}' needs boolean operands")
            return right
        left = self.left.evaluate(env)
        right = self.right.evaluate(env)
        if self.op in _COMPARISON:
            self._check_comparable(left, right)
            return _COMPARISON[self.op](left, right)
        if self.op in _ARITHMETIC:
            if isinstance(left, bool) or isinstance(right, bool):
                raise EvaluationError(f"'{self.op}' needs numeric operands")
            try:
                result = _ARITHMETIC[self.op](left, right)
            except ZeroDivisionError:
                raise EvaluationError("division by zero") from None
            if self.op == "/" and isinstance(left, int) and isinstance(right, int):
                # '/' is real division; keep ints only when exact.
                return result if isinstance(result, int) else float(result)
            return result
        raise EvaluationError(f"unknown operator {self.op!r}")

    def _check_comparable(self, left: Value, right: Value) -> None:
        left_is_bool = isinstance(left, bool)
        right_is_bool = isinstance(right, bool)
        if left_is_bool != right_is_bool:
            raise EvaluationError(
                f"cannot compare {type(left).__name__} with {type(right).__name__}"
            )
        if left_is_bool and self.op not in ("=", "!="):
            raise EvaluationError(f"'{self.op}' is not defined on booleans")

    def free_variables(self) -> frozenset:
        return self.left.free_variables() | self.right.free_variables()

    def infer_type(self, scope: Mapping[str, DataType]) -> DataType:
        left = self.left.infer_type(scope)
        right = self.right.infer_type(scope)
        if self.op in _BOOLEAN:
            if left is not DataType.BOOL or right is not DataType.BOOL:
                raise TypeCheckError(f"'{self.op}' needs boolean operands")
            return DataType.BOOL
        if self.op in _COMPARISON:
            numeric = (DataType.INT, DataType.REAL)
            if self.op in ("=", "!="):
                if (left is DataType.BOOL) != (right is DataType.BOOL):
                    raise TypeCheckError("cannot compare booleans with numbers")
            elif left not in numeric or right not in numeric:
                raise TypeCheckError(f"'{self.op}' needs numeric operands")
            return DataType.BOOL
        if self.op in _ARITHMETIC:
            numeric = (DataType.INT, DataType.REAL)
            if left not in numeric or right not in numeric:
                raise TypeCheckError(f"'{self.op}' needs numeric operands")
            if self.op == "/":
                return DataType.REAL
            if DataType.REAL in (left, right):
                return DataType.REAL
            return DataType.INT
        raise TypeCheckError(f"unknown operator {self.op!r}")

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnaryOp(Expr):
    """Unary minus or boolean negation."""

    op: str  # '-' or 'not'
    operand: Expr

    def evaluate(self, env: Env) -> Value:
        value = self.operand.evaluate(env)
        if self.op == "-":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise EvaluationError("unary '-' needs a numeric operand")
            return -value
        if self.op == "not":
            if not isinstance(value, bool):
                raise EvaluationError("'not' needs a boolean operand")
            return not value
        raise EvaluationError(f"unknown unary operator {self.op!r}")

    def free_variables(self) -> frozenset:
        return self.operand.free_variables()

    def infer_type(self, scope: Mapping[str, DataType]) -> DataType:
        inner = self.operand.infer_type(scope)
        if self.op == "-":
            if inner not in (DataType.INT, DataType.REAL):
                raise TypeCheckError("unary '-' needs a numeric operand")
            return inner
        if self.op == "not":
            if inner is not DataType.BOOL:
                raise TypeCheckError("'not' needs a boolean operand")
            return DataType.BOOL
        raise TypeCheckError(f"unknown unary operator {self.op!r}")

    def __str__(self) -> str:
        return f"{self.op}({self.operand})"


def _builtin_floor(value: Value) -> int:
    return math.floor(value)


def _builtin_ceil(value: Value) -> int:
    return math.ceil(value)


_FUNCTIONS = {
    "min": (2, min),
    "max": (2, max),
    "abs": (1, abs),
    "floor": (1, _builtin_floor),
    "ceil": (1, _builtin_ceil),
}


@dataclass(frozen=True)
class FunctionCall(Expr):
    """Call to a builtin numeric function."""

    name: str
    args: Tuple[Expr, ...]

    def evaluate(self, env: Env) -> Value:
        try:
            arity, fn = _FUNCTIONS[self.name]
        except KeyError:
            raise EvaluationError(f"unknown function {self.name!r}") from None
        if len(self.args) != arity:
            raise EvaluationError(
                f"function {self.name!r} expects {arity} argument(s), "
                f"got {len(self.args)}"
            )
        values = [arg.evaluate(env) for arg in self.args]
        for value in values:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise EvaluationError(
                    f"function {self.name!r} needs numeric arguments"
                )
        return fn(*values)

    def free_variables(self) -> frozenset:
        result: frozenset = frozenset()
        for arg in self.args:
            result |= arg.free_variables()
        return result

    def infer_type(self, scope: Mapping[str, DataType]) -> DataType:
        try:
            arity, _ = _FUNCTIONS[self.name]
        except KeyError:
            raise TypeCheckError(f"unknown function {self.name!r}") from None
        if len(self.args) != arity:
            raise TypeCheckError(
                f"function {self.name!r} expects {arity} argument(s), "
                f"got {len(self.args)}"
            )
        arg_types = [arg.infer_type(scope) for arg in self.args]
        for arg_type in arg_types:
            if arg_type not in (DataType.INT, DataType.REAL):
                raise TypeCheckError(
                    f"function {self.name!r} needs numeric arguments"
                )
        if self.name in ("floor", "ceil"):
            return DataType.INT
        if DataType.REAL in arg_types:
            return DataType.REAL
        return DataType.INT

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


# ---------------------------------------------------------------------------
# Convenience constructors used by the programmatic builder API.
# ---------------------------------------------------------------------------

def lit(value: Value) -> Literal:
    """Build a literal expression from a Python value."""
    return Literal(value)


def var(name: str) -> Variable:
    """Build a variable reference."""
    return Variable(name)


def _coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    return Literal(value)


def binop(op: str, left, right) -> BinaryOp:
    """Build a binary operation, coercing Python values to literals."""
    return BinaryOp(op, _coerce(left), _coerce(right))


def evaluate_constant(expr: Expr, env: Env = None) -> Value:
    """Evaluate *expr*, defaulting to an empty environment."""
    return expr.evaluate(env if env is not None else {})


def check_closed(expr: Expr, bound: frozenset, context: str) -> None:
    """Raise :class:`TypeCheckError` when *expr* has variables outside *bound*."""
    extra = expr.free_variables() - bound
    if extra:
        names = ", ".join(sorted(extra))
        raise TypeCheckError(f"unbound variable(s) {names} in {context}")


# ---------------------------------------------------------------------------
# Memoised evaluation for the state-space generation hot path.
#
# Guards and rate expressions are evaluated enormous numbers of times during
# generation and sweep relabeling, almost always over a handful of distinct
# (expression, relevant-environment) pairs: the same ``cond(n < capacity)``
# re-appears in every local state of every sweep point.  Expression nodes are
# immutable, so the value only depends on the expression identity and the
# values of its free variables.
# ---------------------------------------------------------------------------

#: Sentinel marking a free variable absent from the environment (so two
#: environments binding *different* subsets of the free variables never
#: collide on the same signature).
_UNBOUND = object()


class EvaluationCache:
    """Memo for expression evaluation keyed by (expr identity, env signature).

    The cache holds a reference to every memoised expression, so ``id()``
    keys stay valid for the lifetime of the entry (no aliasing after GC).
    When the cache exceeds ``maxsize`` entries it is cleared wholesale —
    the working set of a generation run is tiny compared to the cap.
    """

    def __init__(self, maxsize: int = 1 << 16):
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: Dict[tuple, Tuple[Expr, Value]] = {}
        self._free_vars: Dict[int, Tuple[Expr, Tuple[str, ...]]] = {}

    def _signature(self, expr: Expr, env: Env) -> tuple:
        cached = self._free_vars.get(id(expr))
        if cached is None or cached[0] is not expr:
            names = tuple(sorted(expr.free_variables()))
            self._free_vars[id(expr)] = (expr, names)
        else:
            names = cached[1]
        # The value's class is part of the signature: 1, 1.0 and True are
        # equal (and hash alike) but evaluate differently under the typed
        # expression language.
        return (id(expr),) + tuple(
            (value.__class__, value)
            for value in (env.get(name, _UNBOUND) for name in names)
        )

    def evaluate(self, expr: Expr, env: Env) -> Value:
        """Evaluate *expr* under *env*, memoising closed sub-environments."""
        key = self._signature(expr, env)
        entry = self._entries.get(key)
        if entry is not None and entry[0] is expr:
            self.hits += 1
            return entry[1]
        self.misses += 1
        value = expr.evaluate(env)
        if len(self._entries) >= self.maxsize:
            self._entries.clear()
        self._entries[key] = (expr, value)
        return value

    def clear(self) -> None:
        """Drop all memoised entries and statistics."""
        self._entries.clear()
        self._free_vars.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)


#: Process-wide cache used by the state-space generator for guard conditions.
GUARD_CACHE = EvaluationCache()


def evaluate_guard(expr: Expr, env: Env) -> Value:
    """Memoised guard evaluation (the generation hot path)."""
    return GUARD_CACHE.evaluate(expr, env)
