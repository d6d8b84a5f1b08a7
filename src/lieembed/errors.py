"""Exception types and the value-record bases shared across the package."""


class Record:
    """A value over the fields named, in order, by the subclass's
    ``__slots__``: built by position or keyword, equal by class and fields,
    shown as ``Name(field=value, ...)``; mutable and unhashable."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if (len(args) + len(kwargs) != len(names)
                or not set(kwargs) <= set(names[len(args):])):
            raise TypeError(f"{type(self).__name__}() takes the fields "
                            f"({', '.join(names)})")
        for name, value in (*zip(names, args), *kwargs.items()):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):  # copy and pickle call __init__: Frozen bars setattr
        return type(self), self._fields()


class Frozen(Record):
    """A :class:`Record` that is hashable and cannot be assigned to."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class LieEmbedError(Exception):
    """Base class for all library errors."""


class ParseError(LieEmbedError, ValueError):
    """Malformed input: element text, a JSON document or a name."""


class UnknownName(LieEmbedError, KeyError):
    """A catalog or algebra name that is not built in."""

    __str__ = Exception.__str__  # KeyError's would quote the message


class InvalidStructureConstants(LieEmbedError, ValueError):
    """A structure-constant table has an index outside the basis or fails
    the Jacobi identity."""


class ExtensionDegreeTooHigh(LieEmbedError):
    """Eigenvalues require an extension beyond a single quadratic field."""


class NotASubalgebra(LieEmbedError):
    """A subspace that was required to be bracket-closed is not."""


class NotATorus(LieEmbedError):
    """Input is not an abelian algebra of semisimple elements."""


class NotAbelianNilpotent(LieEmbedError):
    """Input is not an abelian algebra of ad-nilpotent elements."""


class NotNilpotent(LieEmbedError):
    """Input is not an algebra of ad-nilpotent elements."""


class NoRealSemisimpleFound(LieEmbedError):
    """Search budget exhausted without an all-real-eigenvalue element."""


class NoCompactFound(LieEmbedError):
    """Search budget exhausted without a compatible compact element."""


class NotSplit(LieEmbedError):
    """Algebra has no real torus to build simple-root circles from."""


class CenterObstruction(LieEmbedError):
    """Adjoint is not faithful and no preimage exists at all."""


class DegenerateRoot(LieEmbedError):
    """Bracket of opposite root spaces vanishes; no sl2 triple."""


class NotAPositiveSystem(LieEmbedError):
    """Roots taken as positive hold a root and its negative, or a root set
    to be halved lacks a root's negative."""


class UnrecognizedBondPattern(LieEmbedError):
    """Integral combinations of two simple roots match no diagram rule."""


class UnrecognizedDiagram(LieEmbedError):
    """Bond graph matches no entry of the classification tables."""


class VariableMismatch(LieEmbedError):
    """Vector fields over different variable lists cannot be bracketed."""


class NotClosed(LieEmbedError):
    """A catalog bracket leaves the span of the generators."""

    def __init__(self, msg, pair=None, residual=None):
        super().__init__(msg)
        self.pair = pair
        self.residual = residual
