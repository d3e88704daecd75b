"""``Record``, the one base of the package's data classes, with its ``astuple`` and ``asdict``."""


class Record:
    """Base of the package's data classes: a subclass's annotated class attributes are its fields, in order.

    A class-level value is the field's default (a dict default is copied per instance); ``_fields`` and
    ``_field_defaults`` hold them.  Instances are frozen.  The class keyword ``kw_only=True`` refuses positional
    arguments; ``__post_init__``, if any, runs once the fields are bound.  ==, hash and repr go by the fields;
    unpickling sets ``__dict__`` without ``__init__``.
    """

    def __init_subclass__(cls, kw_only: bool = False) -> None:
        cls._fields = tuple(cls.__annotations__)  # the class's own annotations, from Python 3.10
        cls._field_defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        cls._positional = 0 if kw_only else len(cls._fields)

    def __init__(self, *args, **kwargs) -> None:
        cls, bind = type(self), object.__setattr__  # not via __dict__, which would slow every attribute read
        if len(args) > cls._positional:
            raise TypeError(f"{cls.__name__}() takes {cls._positional} positional arguments, got {len(args)}")
        for name, value in zip(cls._fields, args):
            bind(self, name, value)
        for name in cls._fields[len(args):]:
            if name in kwargs:
                bind(self, name, kwargs.pop(name))
            elif name in cls._field_defaults:
                default = cls._field_defaults[name]
                bind(self, name, default.copy() if isinstance(default, dict) else default)
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unexpected or repeated arguments: {', '.join(kwargs)}")
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen {type(self).__name__}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        return astuple(self) == astuple(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(astuple(self))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"


def astuple(record: Record) -> tuple:
    return tuple([getattr(record, name) for name in record._fields])


def asdict(value):
    """``value`` with each record in it, however deep, a dict of its fields."""
    if isinstance(value, Record):
        value = {name: getattr(value, name) for name in value._fields}
    if isinstance(value, dict):
        return {key: asdict(item) for key, item in value.items()}
    return tuple(map(asdict, value)) if isinstance(value, tuple) else value
