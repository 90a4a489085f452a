"""The line-oriented input language.

    ring R vars x,y,z char 32003 order grevlex
    relations R (x^4, x*z, y*z)
    ideal I in R (x, y)
    assert I G_d AN_minus depth_RI=1
    analyze I seed=42 trials=5

'#' starts a comment; blank lines are skipped; whitespace is free inside
parentheses.  Parse errors carry a line and column.  Relations must be
declared before any ideal over the same ring, since they fix the ambient
quotient that every later handle refers to.
"""

from dataclasses import dataclass, field, replace

from .analysis import AssertedHypotheses
from .errors import NonPrimeChar, SessionSyntaxError
from .field import PrimeField, is_prime
from .groebner import DEFAULT_DEGREE_CAP
from .ideals import AmbientRing
from .orders import grevlex, lex
from .parsing import Token, TokenStream, parse_generator_list, tokenize
from .poly import PolyRing


@dataclass(frozen=True)
class SessionConfig:
    char: int = 32003
    seed: int = 1
    trials: int = 5
    gb_degree_cap: int = DEFAULT_DEGREE_CAP

    def __post_init__(self):
        if not is_prime(self.char):
            raise NonPrimeChar(f"characteristic {self.char} is not prime")
        if self.gb_degree_cap <= 0:
            raise ValueError("the degree cap must be positive")


@dataclass(frozen=True)
class AnalyzeCommand:
    ideal: str
    seed: int
    trials: int


@dataclass
class Session:
    config: SessionConfig
    ambients: dict = field(default_factory=dict)
    ideals: dict = field(default_factory=dict)
    asserted: dict = field(default_factory=dict)
    commands: list = field(default_factory=list)


class _RingDecl:
    def __init__(self, names, char, order):
        self.names = names
        self.char = char
        self.order = order
        self.relations = None
        self.frozen = None  # AmbientRing once an ideal is declared

    def ambient(self, cap):
        if self.frozen is None:
            ring = PolyRing(self.names, PrimeField(self.char), self.order)
            rels = tuple(self.relations) if self.relations else ()
            self.frozen = AmbientRing(ring, rels, cap)
        return self.frozen


def _split_statements(tokens):
    """Group tokens into line-oriented statements; newlines inside an open
    parenthesis do not end a statement."""
    statements = []
    current = []
    depth = 0
    for tok in tokens:
        if tok.kind == "end":
            break
        if current and depth == 0 and tok.line > current[-1].line:
            statements.append(current)
            current = []
        current.append(tok)
        if tok.kind == "sym":
            if tok.text == "(":
                depth += 1
            elif tok.text == ")":
                depth = max(0, depth - 1)
    if current:
        statements.append(current)
    return statements


def parse_session(text, config=None):
    """Parse a session script into ambient rings, named ideals and commands."""
    config = config or SessionConfig()
    session = Session(config=config)
    decls = {}
    saw_ring = False
    for chunk in _split_statements(tokenize(text)):
        last = chunk[-1]
        stream = TokenStream(chunk + [Token("end", "", last.line, last.col + len(last.text))])
        head = stream.peek()
        if head.kind != "name":
            raise SessionSyntaxError(f"expected a statement, found {head.text!r}", head.line, head.col)
        keyword = stream.next().text
        if keyword == "ring":
            _parse_ring(stream, decls, config)
            saw_ring = True
        elif keyword == "relations":
            _parse_relations(stream, decls, session)
        elif keyword == "ideal":
            _parse_ideal(stream, decls, session, config)
        elif keyword == "assert":
            _parse_assert(stream, session)
        elif keyword == "analyze":
            _parse_analyze(stream, session, config)
        else:
            raise SessionSyntaxError(f"unknown statement {keyword!r}", head.line, head.col)
        tail = stream.peek()
        if tail.kind != "end":
            raise SessionSyntaxError(f"trailing input {tail.text!r}", tail.line, tail.col)
    if not saw_ring:
        raise SessionSyntaxError("no ring declared", 1, 1)
    return session


def _parse_ring(stream, decls, config):
    name_tok = stream.expect_name("ring name")
    if name_tok.text in decls:
        raise SessionSyntaxError(f"duplicate ring {name_tok.text!r}", name_tok.line, name_tok.col)
    kw = stream.expect_name("'vars'")
    if kw.text != "vars":
        raise SessionSyntaxError("expected 'vars'", kw.line, kw.col)
    names = [stream.expect_name("variable name").text]
    while stream.accept_sym(","):
        names.append(stream.expect_name("variable name").text)
    char = config.char
    order = grevlex()
    while stream.peek().kind == "name":
        opt = stream.next()
        if opt.text == "char":
            tok = stream.peek()
            char = stream.expect_int()
            if not is_prime(char):
                raise NonPrimeChar(f"characteristic {char} is not prime", tok.line, tok.col)
        elif opt.text == "order":
            ordname = stream.expect_name("order name")
            if ordname.text == "grevlex":
                order = grevlex()
            elif ordname.text == "lex":
                order = lex()
            else:
                raise SessionSyntaxError(f"unknown order {ordname.text!r}", ordname.line, ordname.col)
        else:
            raise SessionSyntaxError(f"unknown ring option {opt.text!r}", opt.line, opt.col)
    if len(set(names)) != len(names):
        raise SessionSyntaxError("duplicate variable name", name_tok.line, name_tok.col)
    decls[name_tok.text] = _RingDecl(tuple(names), char, order)


def _ring_decl(stream, decls, tok):
    decl = decls.get(tok.text)
    if decl is None:
        raise SessionSyntaxError(f"unknown ring {tok.text!r}", tok.line, tok.col)
    return decl


def _parse_relations(stream, decls, session):
    tok = stream.expect_name("ring name")
    decl = _ring_decl(stream, decls, tok)
    if decl.frozen is not None:
        raise SessionSyntaxError("relations must precede ideals over the ring", tok.line, tok.col)
    if decl.relations is not None:
        raise SessionSyntaxError(f"relations for {tok.text!r} already declared", tok.line, tok.col)
    ring = PolyRing(decl.names, PrimeField(decl.char), decl.order)
    decl.relations = parse_generator_list(ring, stream)


def _parse_ideal(stream, decls, session, config):
    name_tok = stream.expect_name("ideal name")
    if name_tok.text in session.ideals:
        raise SessionSyntaxError(f"duplicate ideal {name_tok.text!r}", name_tok.line, name_tok.col)
    kw = stream.expect_name("'in'")
    if kw.text != "in":
        raise SessionSyntaxError("expected 'in'", kw.line, kw.col)
    ring_tok = stream.expect_name("ring name")
    decl = _ring_decl(stream, decls, ring_tok)
    ambient = decl.ambient(config.gb_degree_cap)
    session.ambients[ring_tok.text] = ambient
    gens = parse_generator_list(ambient.ring, stream)
    session.ideals[name_tok.text] = ambient.ideal(gens)


def _ideal_name(stream, session):
    tok = stream.expect_name("ideal name")
    if tok.text not in session.ideals:
        raise SessionSyntaxError(f"unknown ideal {tok.text!r}", tok.line, tok.col)
    return tok.text


def _parse_assert(stream, session):
    name = _ideal_name(stream, session)
    current = session.asserted.get(name, AssertedHypotheses())
    while stream.peek().kind == "name":
        tok = stream.next()
        if tok.text == "G_d":
            current = replace(current, G_d=True)
        elif tok.text == "AN_minus":
            current = replace(current, AN_minus=True)
        elif tok.text == "depth_RI":
            stream.expect_sym("=")
            current = replace(current, depth_RI=stream.expect_int())
        else:
            raise SessionSyntaxError(f"unknown hypothesis {tok.text!r}", tok.line, tok.col)
    session.asserted[name] = current


def _parse_analyze(stream, session, config):
    name = _ideal_name(stream, session)
    seed = config.seed
    trials = config.trials
    while stream.peek().kind == "name":
        tok = stream.next()
        stream.expect_sym("=")
        if tok.text == "seed":
            seed = stream.expect_int()
        elif tok.text == "trials":
            trials = stream.expect_int()
        else:
            raise SessionSyntaxError(f"unknown option {tok.text!r}", tok.line, tok.col)
    session.commands.append(AnalyzeCommand(ideal=name, seed=seed, trials=trials))
