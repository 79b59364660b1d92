"""The e-commerce site model.

The site is modelled after the kind of travel e-commerce application the
paper's data set comes from: a flight/hotel search front end with offer
pages, a booking funnel, a pricing API, tracking beacons and the usual
static assets.  The model's job is to answer one question for the traffic
generator: *given a request to endpoint X under condition Y, what status
code and response size does the server return?*

The status behaviour is what ultimately produces the shape of the paper's
Tables 3 and 4: search and offer pages return mostly ``200`` with a small
share of ``302`` redirects, tracking beacons return ``204``, malformed
queries return ``400``, conditional asset requests return ``304`` and a
small background of ``404``/``500`` errors exists on every endpoint.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

from repro.traffic.draws import WeightedDraw

#: Passenger counts of a flight search, weighted 55/30/10/5.
_PASSENGERS = WeightedDraw((1, 2, 3, 4), (55, 30, 10, 5))


@dataclass(frozen=True)
class Endpoint:
    """One logical endpoint of the site.

    Parameters
    ----------
    name:
        Stable identifier used by actor behaviour profiles.
    path_template:
        Template for the URL path; ``{id}`` is replaced by an item id and
        a query string may be appended by the caller.
    status_weights:
        Mapping of status code to relative weight for a *well-formed*
        request to this endpoint.
    mean_size:
        Mean response body size in bytes for a ``200`` response.
    is_asset:
        True for static-asset endpoints (css/js/images).
    """

    name: str
    path_template: str
    status_weights: Mapping[int, float]
    mean_size: int
    is_asset: bool = False
    supports_conditional: bool = False

    @cached_property
    def _status_draw(self) -> WeightedDraw[int]:
        """The status draw, prepared once."""
        return WeightedDraw(tuple(self.status_weights), self.status_weights.values())

    def choose_status(self, rng: random.Random) -> int:
        """Draw a status code for a well-formed request."""
        return self._status_draw.draw(rng)


def _default_endpoints() -> Sequence[Endpoint]:
    """The endpoints of the synthetic travel e-commerce application."""
    return (
        Endpoint(
            name="home",
            path_template="/",
            status_weights={200: 0.987, 302: 0.012, 500: 0.001},
            mean_size=32_000,
        ),
        Endpoint(
            name="search",
            path_template="/search",
            status_weights={200: 0.9651, 302: 0.032, 500: 0.0009, 404: 0.002},
            mean_size=48_000,
        ),
        Endpoint(
            name="offer",
            path_template="/offers/{id}",
            status_weights={200: 0.9712, 302: 0.025, 404: 0.003, 500: 0.0008},
            mean_size=41_000,
        ),
        Endpoint(
            name="availability",
            path_template="/api/availability",
            status_weights={200: 0.976, 204: 0.022, 500: 0.002},
            mean_size=6_000,
        ),
        Endpoint(
            name="price_api",
            path_template="/api/price",
            status_weights={200: 0.988, 204: 0.011, 500: 0.001},
            mean_size=2_400,
        ),
        Endpoint(
            name="booking",
            path_template="/booking",
            status_weights={302: 0.85, 200: 0.14, 500: 0.01},
            mean_size=18_000,
        ),
        Endpoint(
            name="checkout",
            path_template="/checkout",
            status_weights={200: 0.92, 302: 0.07, 500: 0.01},
            mean_size=22_000,
        ),
        Endpoint(
            name="login",
            path_template="/account/login",
            status_weights={200: 0.70, 302: 0.29, 500: 0.01},
            mean_size=9_000,
        ),
        Endpoint(
            name="beacon",
            path_template="/track/beacon",
            status_weights={204: 0.97, 200: 0.03},
            mean_size=0,
        ),
        Endpoint(
            name="robots",
            path_template="/robots.txt",
            status_weights={200: 1.0},
            mean_size=180,
        ),
        Endpoint(
            name="sitemap",
            path_template="/sitemap.xml",
            status_weights={200: 0.98, 404: 0.02},
            mean_size=5_500,
        ),
        Endpoint(
            name="asset_css",
            path_template="/static/css/app-{id}.css",
            status_weights={200: 1.0},
            mean_size=52_000,
            is_asset=True,
            supports_conditional=True,
        ),
        Endpoint(
            name="asset_js",
            path_template="/static/js/bundle-{id}.js",
            status_weights={200: 1.0},
            mean_size=210_000,
            is_asset=True,
            supports_conditional=True,
        ),
        Endpoint(
            name="asset_img",
            path_template="/static/img/offer-{id}.jpg",
            status_weights={200: 0.995, 404: 0.005},
            mean_size=84_000,
            is_asset=True,
            supports_conditional=True,
        ),
    )


@dataclass
class SiteModel:
    """Status/size behaviour of the synthetic e-commerce application."""

    endpoints: Sequence[Endpoint] = field(default_factory=_default_endpoints)
    #: Cities used to build realistic search query strings.
    cities: Sequence[str] = (
        "PAR", "LIS", "LON", "NYC", "MAD", "BCN", "FRA", "AMS", "ROM", "DXB",
        "SIN", "HKG", "SFO", "LAX", "GVA", "ZRH", "VIE", "OSL", "CPH", "HEL",
    )
    #: Number of distinct offer/product ids the site exposes.
    catalogue_size: int = 5000

    def __post_init__(self) -> None:
        self._by_name = {endpoint.name: endpoint for endpoint in self.endpoints}

    # ------------------------------------------------------------------
    def endpoint(self, name: str) -> Endpoint:
        """Return the endpoint with the given name."""
        try:
            return self._by_name[name]
        except KeyError as exc:
            raise KeyError(f"unknown endpoint {name!r}") from exc

    def endpoint_names(self) -> list[str]:
        """All endpoint names."""
        return list(self._by_name)

    # ------------------------------------------------------------------
    # Path construction
    # ------------------------------------------------------------------
    def build_path(self, name: str, rng: random.Random, *, item_id: int | None = None, query: str | None = None) -> str:
        """Build a concrete URL path for the endpoint ``name``."""
        endpoint = self.endpoint(name)
        path = endpoint.path_template
        if "{id}" in path:
            if item_id is None:
                item_id = rng.randrange(self.catalogue_size)
            path = path.replace("{id}", str(item_id))
        if query is None and name == "search":
            query = self.search_query(rng)
        elif query is None and name in ("price_api", "availability"):
            query = self.pricing_query(rng)
        if query:
            path = f"{path}?{query}"
        return path

    def search_query(self, rng: random.Random) -> str:
        """A realistic flight-search query string."""
        origin = rng.choice(self.cities)
        destination = rng.choice([c for c in self.cities if c != origin])
        day = rng.randrange(1, 29)
        month = rng.choice(["04", "05", "06", "07"])
        passengers = _PASSENGERS.draw(rng)
        return f"o={origin}&d={destination}&dt=2018-{month}-{day:02d}&pax={passengers}"

    def pricing_query(self, rng: random.Random) -> str:
        """A realistic pricing-API query string."""
        offer = rng.randrange(self.catalogue_size)
        currency = rng.choice(["EUR", "USD", "GBP", "CHF"])
        return f"offer={offer}&cur={currency}"

    def malformed_query(self, rng: random.Random) -> str:
        """A malformed query string of the kind naive scrapers produce."""
        choices = [
            "o=&d=&dt=",
            "o=%%INVALID%%&d=PAR",
            "offer=999999999999&cur=XX",
            "dt=2018-13-45",
            "o=PAR&d=PAR&pax=-1",
            "q=" + "A" * rng.randrange(200, 400),
        ]
        return rng.choice(choices)

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------
    def respond(
        self,
        name: str,
        rng: random.Random,
        *,
        malformed: bool = False,
        conditional: bool = False,
        not_found: bool = False,
    ) -> tuple[int, int]:
        """Return ``(status, size)`` for a request to endpoint ``name``.

        Parameters
        ----------
        malformed:
            The request carried a malformed query string -> ``400``.
        conditional:
            The client sent ``If-Modified-Since``/``If-None-Match`` and the
            resource is unchanged -> ``304`` when supported.
        not_found:
            The client asked for a non-existent item -> ``404``.
        """
        endpoint = self.endpoint(name)
        if malformed:
            return 400, rng.randrange(250, 700)
        if not_found:
            return 404, rng.randrange(400, 1200)
        if conditional and endpoint.supports_conditional:
            return 304, 0
        status = endpoint.choose_status(rng)
        size = self.response_size(endpoint, status, rng)
        return status, size

    def response_size(self, endpoint: Endpoint, status: int, rng: random.Random) -> int:
        """Draw a response body size for the given endpoint and status."""
        if status in (204, 304):
            return 0
        if status == 302:
            return rng.randrange(200, 600)
        if status >= 400:
            return rng.randrange(300, 1500)
        if endpoint.mean_size == 0:
            return 0
        # Log-normal-ish spread around the endpoint's mean size.
        factor = rng.lognormvariate(0.0, 0.25)
        return max(64, int(endpoint.mean_size * factor))
