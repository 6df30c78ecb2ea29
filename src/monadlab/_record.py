"""Record: the base of the package's slotted result classes.

A subclass declares its fields once, as __slots__, and the defaults of
its trailing fields in `defaults`.  __init_subclass__ compiles a plain
__init__ that takes the fields in slot order and assigns each one, as
dataclasses does, but without importing dataclasses or inspect at start-up.
A default of `list` or `dict` stands for None in the signature and a fresh
empty list or dict per instance, so no two instances share one; any other
default is the value itself.  A record compares by identity unless it
defines __eq__ itself.
"""

_FRESH = {list: "[]", dict: "{}"}


class Record:
    __slots__ = ()
    defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields, defaults = cls.__slots__, cls.defaults
        # defaults name the last fields: a KeyError below refuses any other
        tail = fields[len(fields) - len(defaults):]
        body = []
        for name in fields:
            fresh = _FRESH.get(defaults.get(name))
            value = f"{fresh} if {name} is None else {name}" if fresh else name
            body.append(f"    self.{name} = {value}\n")
        namespace = {}
        exec(f"def __init__(self, {', '.join(fields)}):\n{''.join(body)}", namespace)
        init = namespace["__init__"]
        init.__defaults__ = tuple(None if defaults[name] in _FRESH else defaults[name]
                                  for name in tail) or None
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        init.__module__ = cls.__module__
        cls.__init__ = init
