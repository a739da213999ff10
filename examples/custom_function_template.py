"""A non-astronomy function proxy: the paper's "similar books" example.

Section 3.1 of the paper: "a function of returning books that are
similar to a given book, with a certain similarity distance metric over
several parameters, can be abstracted into a hypersphere selection
query."  This example builds exactly that from the library's public
pieces — no SkyServer involved:

* a ``Books`` table with normalized feature coordinates
  (price, pages, publication year);
* a table-valued UDF ``fSimilarBooks(price, pages, year, distance)``
  returning all books within ``distance`` in feature space;
* a function template declaring it a 3-d hypersphere;
* a query template joining back to ``Books`` for attribute expansion;
* a function proxy answering zoomed-in searches from cache.

Run:  python examples/custom_function_template.py
"""

import math
import random

from repro import (
    CachingScheme,
    FunctionProxy,
    FunctionTemplate,
    OriginServer,
    QueryTemplate,
    Shape,
    TemplateInfoFile,
    TemplateManager,
)
from repro.relational.catalog import Catalog
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.relational.types import ColumnType
from repro.sqlparser.parser import parse_expression
from repro.udf.registry import FunctionRegistry, TableFunction

# Feature normalization: price in [0, 200] dollars, pages in [0, 1500],
# year in [1950, 2010] — each mapped to [0, 1] so Euclidean distance is
# a sane similarity metric.
PRICE_SCALE = 200.0
PAGES_SCALE = 1500.0
YEAR_BASE, YEAR_SPAN = 1950.0, 60.0

BOOKS_SCHEMA = Schema.of(
    ("bookID", ColumnType.INT),
    ("title", ColumnType.STR),
    ("price", ColumnType.FLOAT),
    ("pages", ColumnType.INT),
    ("year", ColumnType.INT),
    ("fprice", ColumnType.FLOAT),   # normalized features: the paper's
    ("fpages", ColumnType.FLOAT),   # "result attribute availability"
    ("fyear", ColumnType.FLOAT),    # property needs them in results
)

SIMILAR_SCHEMA = Schema.of(
    ("bookID", ColumnType.INT),
    ("fprice", ColumnType.FLOAT),
    ("fpages", ColumnType.FLOAT),
    ("fyear", ColumnType.FLOAT),
    ("similarity", ColumnType.FLOAT),
)


def build_bookstore(n_books: int = 20_000, seed: int = 7) -> Catalog:
    rng = random.Random(seed)
    books = Table("Books", BOOKS_SCHEMA, primary_key="bookID")
    for book_id in range(1, n_books + 1):
        price = rng.uniform(5.0, 150.0)
        pages = rng.randint(80, 1200)
        year = rng.randint(1955, 2005)
        books.insert(
            (
                book_id,
                f"Book #{book_id}",
                price,
                pages,
                year,
                price / PRICE_SCALE,
                pages / PAGES_SCALE,
                (year - YEAR_BASE) / YEAR_SPAN,
            )
        )
    catalog = Catalog()
    catalog.add_table(books)

    positions = {
        name: BOOKS_SCHEMA.position(name)
        for name in ("bookID", "fprice", "fpages", "fyear")
    }

    def f_similar_books(catalog_, args):
        price, pages, year, distance = (float(a) for a in args)
        center = (
            price / PRICE_SCALE,
            pages / PAGES_SCALE,
            (year - YEAR_BASE) / YEAR_SPAN,
        )
        rows = []
        for row in books.rows:
            point = (
                row[positions["fprice"]],
                row[positions["fpages"]],
                row[positions["fyear"]],
            )
            d = math.dist(center, point)
            if d <= distance:
                rows.append(
                    (row[positions["bookID"]], *point, d)
                )
        rows.sort(key=lambda r: r[-1])
        return rows

    catalog.functions.register_table(
        TableFunction(
            name="fSimilarBooks",
            params=("price", "pages", "year", "distance"),
            schema=SIMILAR_SCHEMA,
            impl=f_similar_books,
            deterministic=True,
            description="Books within a similarity distance of a "
            "reference book's features.",
            # Measured from the reference book of *this* call.
            query_dependent=("similarity",),
        )
    )
    return catalog


def build_templates(functions: FunctionRegistry) -> TemplateManager:
    """The bookstore's templates, registered against ``functions`` —
    the registry ``fSimilarBooks`` lives in — so registration checks
    that the function is deterministic."""
    function_template = FunctionTemplate(
        name="fSimilarBooks",
        params=("price", "pages", "year", "distance"),
        shape=Shape.HYPERSPHERE,
        dims=3,
        center_exprs=(
            parse_expression(f"$price / {PRICE_SCALE}"),
            parse_expression(f"$pages / {PAGES_SCALE}"),
            parse_expression(f"($year - {YEAR_BASE}) / {YEAR_SPAN}"),
        ),
        radius_expr=parse_expression("$distance"),
        point_exprs=(
            parse_expression("fprice"),
            parse_expression("fpages"),
            parse_expression("fyear"),
        ),
        description="Similarity search as a 3-d hypersphere in "
        "normalized (price, pages, year) space.",
        # The similarity of a cached book to *this* reference book, so
        # an answer from cache carries this search's distances.
        outputs=(
            (
                "similarity",
                parse_expression(
                    f"dist($price / {PRICE_SCALE}, $pages / {PAGES_SCALE}, "
                    f"($year - {YEAR_BASE}) / {YEAR_SPAN}, "
                    "fprice, fpages, fyear)"
                ),
            ),
        ),
    )
    query_template = QueryTemplate.from_sql(
        template_id="bookstore.similar",
        sql=(
            "SELECT b.bookID, b.title, b.price, b.pages, b.year, "
            "b.fprice, b.fpages, b.fyear, s.similarity "
            "FROM fSimilarBooks($price, $pages, $year, $distance) s "
            "JOIN Books b ON s.bookID = b.bookID "
            "WHERE b.price BETWEEN $price_min AND $price_max"
        ),
        function_template=function_template,
        key_column="bookID",
        description="The bookstore's 'find similar books' search.",
    )
    manager = TemplateManager(functions)
    manager.register_function_template(function_template)
    manager.register_query_template(query_template)
    manager.register_info_file(
        TemplateInfoFile(
            form_name="SimilarBooks",
            template_id="bookstore.similar",
            field_map={
                "price": "price",
                "pages": "pages",
                "year": "year",
                "distance": "distance",
            },
            defaults={"price_min": 0.0, "price_max": 10_000.0},
        )
    )
    return manager


def main() -> None:
    print("Building the bookstore...")
    catalog = build_bookstore()
    templates = build_templates(catalog.functions)
    origin = OriginServer(catalog, templates)
    proxy = FunctionProxy(
        origin, templates, scheme=CachingScheme.FULL_SEMANTIC
    )

    searches = [
        ("wide search", {"price": "40", "pages": "350", "year": "1995",
                         "distance": "0.12"}),
        ("narrower, nearby", {"price": "42", "pages": "360",
                              "year": "1995", "distance": "0.05"}),
        ("same again", {"price": "42", "pages": "360", "year": "1995",
                        "distance": "0.05"}),
        ("shifted taste", {"price": "55", "pages": "380", "year": "1996",
                           "distance": "0.11"}),
    ]
    print(f"{'request':18} {'status':20} {'books':>5} {'from origin?':>12}")
    for label, fields in searches:
        response = proxy.serve_form("SimilarBooks", fields)
        record = response.record
        print(
            f"{label:18} {record.status.value:20} "
            f"{record.tuples_total:5d} "
            f"{'yes' if record.contacted_origin else 'no':>12}"
        )

    print()
    print("The zoomed-in search was answered from the proxy cache with")
    print("no bookstore contact — the paper's containment case, on a")
    print("completely different domain than the SkyServer.")


if __name__ == "__main__":
    main()
